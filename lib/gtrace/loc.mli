(** Memory-location keys for race detection.

    Shared memory is private to a thread block, so the same shared
    address in two blocks is two distinct locations; [region] carries the
    block id for shared locations and 0 for global ones.  Local and
    parameter spaces never appear: they are thread-private and cannot
    race. *)

type t = private {
  space : Ptx.Ast.space;  (** [Global] or [Shared] only *)
  region : int;  (** owning block for [Shared]; 0 for [Global] *)
  addr : int;  (** byte address within the space *)
}

val global : int -> t
val shared : block:int -> int -> t

val make : space:Ptx.Ast.space -> region:int -> addr:int -> t
(** @raise Invalid_argument for [Local]/[Param] spaces. *)

val with_addr : t -> int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string
(** [g:ADDR] or [s<block>:ADDR], the address in hex. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
