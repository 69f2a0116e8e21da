(** The 280-byte record wire format — the paper's 272-byte layout
    (§4.2, Figure 6) extended with an 8-byte integrity prefix — and its
    {e cell}, the one unit every layer passes: sinks, [Queue] rings,
    [Stream]s and the detector's in-place {!Detector.feed_record}, its
    only input.

    Layout, [pos] being the byte offset of the record inside a larger
    buffer (a queue ring slot or a standalone [Bytes.t]):

    {v
    byte  0      magic (0xBA)
    byte  1      format version (1)
    byte  2      opcode
    byte  3      access width / spare
    bytes 4-5    space code / aux payload (little-endian u16)
    bytes 6-7    rotate-XOR checksum (0 until sealed)
    bytes 8-11   active mask (u32)
    bytes 12-15  warp id (u32, 0xFFFFFFFF = none)
    bytes 16-19  static instruction index (u32, 0xFFFFFFFF = none)
    bytes 20-23  producer sequence number (u32, 0 until sealed)
    bytes 24-279 32 x u64 lane addresses (doubles as aux payload)
    v}

    Every accessor and writer is allocation-free: multi-byte fields go
    through [get_uint16_le]/[set_uint16_le] compositions, which traffic
    in immediate [int]s rather than boxed [Int32.t]/[Int64.t], and a
    64-bit lane slot is written with one unboxed 64-bit store.

    Writers fill the whole 24-byte header (ring slots are reused, so
    stale header fields must be overwritten), but only the lane slots
    their payload defines; a reader may only consult lanes that the
    opcode and mask make meaningful.  After the payload is written and
    before the slot is published, the producer must {!seal} the record;
    consumers validate with {!check} before trusting any field. *)

val magic : int
(** First byte of every record: 0xBA. *)

val version : int
(** Wire format version carried in byte 1; this build reads and writes
    version 1. *)

val header_size : int
(** 24 bytes of header before the lane payload. *)

val size : int
(** 280 bytes: the paper's 272 plus the 8-byte integrity prefix. *)

val max_lanes : int
(** 32 lane-address slots per record: the widest warp a record can
    carry, and so the widest a detector accepts. *)

(** {1 Opcodes} *)

val op_load : int
val op_store : int

val op_atomic_first : int
(** Atomics occupy [op_atomic_first .. op_atomic_last], one opcode per
    {!Ptx.Ast.atom_op}. *)

val op_atomic_last : int
val op_branch_if : int
val op_branch_else : int
val op_branch_fi : int
val op_barrier : int
val op_barrier_divergence : int

val is_access : int -> bool
(** Load, store, or atomic. *)

val opcode_of_kind : Simt.Event.access_kind -> int
val space_code : Ptx.Ast.space -> int
val space_of_code : int -> Ptx.Ast.space

(** {1 Writers} *)

val write_access :
  Bytes.t ->
  pos:int ->
  kind:Simt.Event.access_kind ->
  space:Ptx.Ast.space ->
  width:int ->
  mask:int ->
  warp:int ->
  insn:int ->
  addrs:int array ->
  unit

val write_branch_if :
  Bytes.t ->
  pos:int ->
  mask:int ->
  warp:int ->
  insn:int ->
  then_mask:int ->
  else_mask:int ->
  unit
(** [mask] is conventionally [then_mask lor else_mask]. *)

val write_branch_else :
  Bytes.t -> pos:int -> warp:int -> insn:int -> mask:int -> unit

val write_branch_fi :
  Bytes.t -> pos:int -> warp:int -> insn:int -> mask:int -> unit

val write_barrier :
  Bytes.t -> pos:int -> warp:int -> insn:int -> mask:int -> block:int -> unit
(** The pipeline emits barriers with [warp = -1], [insn = -1],
    [mask = 0]; they carry only the block id. *)

val write_barrier_divergence :
  Bytes.t -> pos:int -> warp:int -> insn:int -> mask:int -> expected:int -> unit

(** {1 Cells}

    A cell is a sealed record, a u16 little-endian count [n] (at most
    {!max_lanes}) and [n] 64-bit little-endian lane values, which the
    same-value write filter (§3.3.1) compares; count and values lie
    outside the checksum.  A buffer that ends with the record holds a
    cell with no values. *)

val cell_size : nvalues:int -> int
val max_cell_size : int (** [cell_size ~nvalues:max_lanes]: 538 bytes. *)

val write_values : Bytes.t -> pos:int -> Bytes.t -> unit
(** [write_values b ~pos values] writes the count and values of the cell
    whose record is at [pos].  [values] holds them in the cell's own
    layout (value [i] a little-endian [int64] at byte [8 * i], as
    {!Simt.Event.mem_access} carries them), so they are copied with one
    blit.
    @raise Invalid_argument unless [values] is a whole number of at most
    {!max_lanes} values. *)

val value_count : Bytes.t -> pos:int -> int
(** The value count of the cell at [pos]; [-1] when it exceeds
    {!max_lanes} or the values run past the end of the buffer. *)

val copy_cell : Bytes.t -> pos:int -> Bytes.t -> dst_pos:int -> unit
(** Copy the cell at [pos] to [dst_pos], which must have room for
    {!max_cell_size} bytes; the copy's {!value_count} is the source's. *)

(** {1 Integrity}

    The checksum is a rotate-XOR sum over a length prefix, the header
    minus the checksum field itself, and exactly the payload bytes the
    opcode and mask make meaningful ({!covered_bytes}).  Stale lane
    bytes beyond the producer's payload are uncovered by design: they
    never influence detection, so a flip there is harmless.  Any
    single-bit flip that leaves the covered length unchanged is
    {e guaranteed} to change the checksum: the stream's 16-bit chunks
    are rotated into disjoint-per-bit positions of a 62-bit
    accumulator and the fold to 16 bits maps every accumulator bit to
    exactly one checksum bit, so one flipped input bit flips exactly
    one checksum bit.  A flip that changes the covered length itself
    (an opcode bit, the top set mask bit) reshapes the stream; the
    avalanched length prefix makes a cancellation there a ~2^-16
    accident rather than anything structured payloads can hit
    systematically. *)

val covered_bytes : Bytes.t -> pos:int -> int
(** Payload bytes covered by the checksum: [8 * (top set mask bit + 1)]
    for accesses, 16 for [branch_if], 0 otherwise. *)

val checksum_at : Bytes.t -> pos:int -> int
(** The checksum of the record at [pos] (the stored checksum field is
    excluded from the sum).  Allocation-free. *)

val seal : Bytes.t -> pos:int -> seq:int -> unit
(** Stamp the producer sequence number (masked to 32 bits) and the
    checksum.  Must be called after the payload writer and before the
    slot is committed; allocation-free. *)

type integrity = Intact | Bad_magic | Bad_version | Bad_checksum

val check : Bytes.t -> pos:int -> integrity
(** Validate magic, version, and checksum of a sealed record.
    Allocation-free (constant constructors only). *)

(** {1 View}

    Field accessors over a record at offset [pos].  A view is just the
    [(buffer, pos)] pair: it stays valid only as long as the underlying
    slot does (for queue rings, until the consumer releases the slot —
    see [Gpu_runtime.Queue]). *)
module View : sig
  val opcode : Bytes.t -> pos:int -> int
  val width : Bytes.t -> pos:int -> int

  val aux : Bytes.t -> pos:int -> int
  (** Space code for accesses, block id for barriers, expected mask for
      barrier divergence. *)

  val mask : Bytes.t -> pos:int -> int
  val warp : Bytes.t -> pos:int -> int
  val insn : Bytes.t -> pos:int -> int

  val seq : Bytes.t -> pos:int -> int
  (** Producer sequence number stamped by {!seal}; 0 on unsealed
      records. *)

  val addr : Bytes.t -> pos:int -> lane:int -> int
  (** Meaningful only for access records and lanes below the producer's
      warp size. *)

  val then_mask : Bytes.t -> pos:int -> int
  (** Branch payloads (lane slots 0 and 1 reused). *)

  val else_mask : Bytes.t -> pos:int -> int

  val addrs : Bytes.t -> pos:int -> mask:int -> int array -> unit
  (** Decode each [mask] lane's address into that lane's slot. *)

  val values :
    Bytes.t -> pos:int -> nvalues:int -> mask:int -> lo:int array ->
    hi:int array -> unit
  (** Decode each [mask] lane's value as its 32-bit halves (bits 0-31
      into [lo], 32-63 into [hi]); 0 for lanes from [nvalues] on. *)
end
