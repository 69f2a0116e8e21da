(** Minimal JSON tree with a printer and parser.

    Self-contained so the telemetry exporters (and their round-trip
    tests) need no external dependency.  Covers the full JSON grammar;
    integers without a fraction or exponent parse as [Int], everything
    else numeric as [Float], so exported counters survive a
    print/parse round trip structurally unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** [minify] defaults to [false]: two-space indented output.  A string
    is copied a run of plain bytes at a time; a quote, a backslash and
    each byte below 0x20 are escaped ([\n], [\r], [\t], else
    [\u00XX]), and every other byte is written as itself.  Floats print
    as [%.1f] when integral and below 1e15 in magnitude, else as
    [%.17g]. *)

val of_string : string -> (t, string) result
(** Parse error messages carry the byte offset.  A document nested
    deeper than 64 containers fails at the 65th bracket, so no input
    can exhaust the stack (this project writes at most 4 levels).  A
    string without escapes is read as one substring of the input. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
val to_str : t -> string option

(** {1 Declarative codecs}

    A document's fields are declared once, and drive both directions.
    Decoding reads them in declaration order and fails at the first
    [missing field "x"] (absent, no default) or [field "x" must be an
    integer] (wrong JSON type); unknown fields are ignored. *)
module Codec : sig
  type json := t
  type 'a t

  val int : int t
  val bool : bool t
  val str : string t
  val float : float t  (* reads an integer too *)
  val marker : unit t  (* always [true]: the field's presence is the news *)
  val list : 'a t -> 'a list t
  val enum : (string * 'a) list -> 'a t

  val conv : ('b -> 'a) -> ('a -> ('b, string) result) -> 'a t -> 'b t
  (* a checked conversion: its [Error] is the decode's error *)
  type ('o, 'a) field
  val field :
    ?default:'a -> ?omit:('a -> bool) -> string -> 'a t -> ('o -> 'a) ->
    ('o, 'a) field
  (** Written unless [omit] holds; read as [default] when absent. *)

  val opt : string -> 'a t -> ('o -> 'a option) -> ('o, 'a option) field
  (** Written when [Some], read as [None] when absent. *)

  type ('o, 'k) obj
  val obj : 'k -> ('o, 'k) obj
  (** [seal (obj (fun x y -> …) |+ field "x" … |+ field "y" …)]. *)

  val ( |+ ) : ('o, 'a -> 'k) obj -> ('o, 'a) field -> ('o, 'k) obj
  val seal : ('o, 'o) obj -> 'o t

  val assoc : string list -> 'a t -> (string * 'a) list t
  (* same-typed fields: writes the pairs given, reads every name *)
  type 'a case

  val case : 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
  (** The values [proj] takes, written as the codec's object. *)

  val tagged : string -> (string * 'a case) list -> 'a t
  (** Cases named by a first field [tag] ([unknown TAG "name"]). *)

  val keyed : string -> (bool * string * 'a case) list -> 'a t
  (** Untagged: the first field [flag] (absent: [false]) selects rows;
      the first with its key field present decodes, else the last. *)

  val encode : 'a t -> 'a -> json
  val decode : 'a t -> json -> ('a, string) result
  val to_string : 'a t -> 'a -> string  (* minified *)
  val of_string : 'a t -> string -> ('a, string) result
end
