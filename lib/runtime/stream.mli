(** Incremental wire-record streams: the byte format streaming sessions
    feed on and batch runs record to.

    A stream is a sequence of {e cells} ({!Barracuda.Wire}'s cell
    layout): one sealed 280-byte wire record, then a 16-bit
    little-endian count [n] (at most {!Barracuda.Wire.max_lanes}) and
    [n] 64-bit little-endian lane values, exactly as the producer wrote
    them and the detector reads them.  The real system rereads store
    values from device memory when applying the same-value write
    filter; carrying them in the cell preserves bitwise verdict parity
    between a replayed stream and the run that recorded it.

    Cells may be split at {e any} byte boundary when shipped in chunks;
    {!feed} reassembles them.  Recorded stream files prepend a fixed
    {!header_size}-byte header naming the grid layout. *)

exception Framing of string
(** The byte stream cannot be a cell sequence (impossible value count).
    Distinct from record-level corruption, which the detector absorbs
    and counts when it validates the record: framing corruption
    desynchronizes every subsequent cell boundary, so it is loud. *)

val cell_size : nvalues:int -> int
(** {!Barracuda.Wire.cell_size}. *)

val max_cell_size : int
(** {!Barracuda.Wire.max_cell_size}. *)

type reader
(** Incremental cell reassembly with partial-cell buffering. *)

val reader : unit -> reader

val pending : reader -> int
(** Bytes buffered awaiting the rest of their cell. *)

val feed :
  reader -> ?pos:int -> ?len:int -> string -> (Bytes.t -> pos:int -> unit) -> int
(** Feed a chunk and invoke the callback once per completed cell, in
    stream order, with the cell where it lies in the reader's buffer:
    the bytes are valid only for the duration of the callback, and the
    buffer may extend past the cell.  Returns the number of cells
    delivered.
    @raise Framing on an impossible value count. *)

(** {1 Recorded stream files} *)

val header_size : int

val encode_header : Vclock.Layout.t -> string
(** 16 bytes: magic ["BAWS"], format version, warp size, threads per
    block, blocks: a 1-D layout's whole shape. *)

val decode_header : string -> Vclock.Layout.t
(** @raise Framing on bad magic/version or a truncated header. *)

val write_file : string -> layout:Vclock.Layout.t -> Buffer.t -> unit
(** Write header + recorded cells to [path].
    @raise Invalid_argument on a 2-D or 3-D layout, which the header
    cannot state: replayed under the 1-D layout it would name, the
    recording would be checked as another launch. *)

val read_file : string -> Vclock.Layout.t * string
(** Load a recorded stream: the layout and the raw cell bytes (header
    stripped), ready to be chunked into {!feed} or a session.
    @raise Framing on a bad header.
    @raise Sys_error if the file cannot be read. *)
