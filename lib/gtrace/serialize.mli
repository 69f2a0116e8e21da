(** Textual serialization of abstract traces.

    One operation per line, in a stable human-greppable format, with a
    header recording the grid layout so a trace file is self-contained:

    {v
    # barracuda-trace v1 warp_size=4 threads_per_block=8 blocks=2
    wr t0 g:0x100 =1
    endi w0 f
    bar b0
    acqglb t8 g:0x300
    v}

    Traces captured from a run ([barracuda check --dump-trace]) can be
    re-checked offline ([barracuda replay]), diffed between runs, or
    minimized by hand while debugging a report. *)

val format_version : int
(** The trace format version this build reads and writes (the [v1] in
    the header).  A trace whose header names any other version is
    rejected with a one-line [Parse_error] naming both versions. *)

val op_to_string : Op.t -> string
(** One operation in the line format above, without the newline. *)

val to_channel : layout:Vclock.Layout.t -> out_channel -> Op.t list -> unit
val to_string : layout:Vclock.Layout.t -> Op.t list -> string

exception Parse_error of { line : int; message : string }

val of_channel : in_channel -> Vclock.Layout.t * Op.t list
(** @raise Parse_error on malformed input: a bad header (a layout
    dimension below 1 included), an unrecognized operation or empty
    tag, or an id outside the header's layout — a thread, warp, block
    or shared region that does not exist, or a mask lane beyond the
    warp size. *)

val of_string : string -> Vclock.Layout.t * Op.t list
(** As {!of_channel}. *)
