(** Shadow memory: per-location race-detection metadata (§4.3.3, Fig. 8).

    Organized as a two-level page table, as in the paper: pages are
    allocated on demand in response to actual accesses (global memory
    consumption is unknown at launch), and each shadow cell carries the
    last-write epoch (+ atomic bit), last-read epoch or a mutable read
    clock once a location has concurrent readers, and the write's
    value and record for the same-value filter.

    The shadow is byte-granular, as in the paper, but losslessly so
    rather than cell-per-byte.  §4.3.3 remarks that it could be
    "substantially decreased if all GPU memory accesses are 2- or
    4-byte aligned"; here that is the default path:
    - a {e word summary} ({!summary}) is one cell standing for the four
      bytes of a 4-aligned word.  It is created only for a word none of
      whose bytes holds a cell yet, so its four bytes start, and (as
      long as only whole-word accesses reach it) stay, in the same
      state;
    - the first byte-level lookup of a summarized word ({!cell})
      splits it into four byte cells, each a copy of every field with
      a read clock of its own, and the word then stays split.

    A summary is thus bitwise the state the four byte cells would
    hold, and a caller checking it once per word, reporting each race
    once per byte, reproduces the byte shadow exactly.

    {b Layout.}  A page covers 256 bytes and is a flat [int array] of
    64 word slots, one per 4-byte word.  A slot is a fixed run of int
    fields: the write and read epochs as (clock, tid), the two
    instruction ids, the write record, the 64-bit write value as two
    32-bit halves, the side-table index of the read clock, and flags
    (summary, split, read-shared, atomic).  A page allocates its second
    array, 256 byte slots of the same layout, on its first split; a
    split word's byte cells live there.  Inflated read clocks
    ({!Vclock.Cvc.Mut.t}) live in a side table that slots index.  No
    cell is a heap block: creating one writes ints into a page, and
    nothing on the check path allocates or stores a pointer.

    {b Handles.}  {!summary} and {!cell} return a {!slot}, an int
    naming a slot of the array the lookup went to.  The accessors
    below read and write its fields.  A handle is valid until the next
    {!summary} or {!cell} call on the same shadow, which may move to
    another array; callers look a cell up, use it, and drop it.

    A shadow memory has a single owner, the detector that created it
    (see {!Detector.t}), so it carries no locks: where the paper's host
    threads share shadow memory and lock each cell (Fig. 8), sharded
    detection partitions the cells between detectors instead.  A
    one-entry page cache answers repeated hits to the same page. *)

type t
type slot = int

val none : slot
(** What {!summary} returns for a word that already has byte cells. *)

val create : unit -> t

val cell : t -> space:Ptx.Ast.space -> region:int -> index:int -> slot
(** The byte cell at byte [index], allocating page and cell on demand;
    if [index]'s word is summarized, the summary is split first.  A
    cell never seen before reads bottom: epochs 0, instruction ids and
    record -1, value 0, no read clock, not shared, not atomic. *)

val summary : t -> space:Ptx.Ast.space -> region:int -> index:int -> slot
(** [summary t ~space ~region ~index], for a 4-aligned byte [index]:
    the word summary standing for bytes [index .. index + 3], created
    (reading bottom) if none of the four bytes holds a cell yet.  If
    the word already has byte cells, the result is {!none}: the caller
    must then go through {!cell} byte by byte. *)

(** {2 Fields of a slot} *)

val write_clock : t -> slot -> int
val write_tid : t -> slot -> int
val write_insn : t -> slot -> int
(** Static instruction id of the last write, [-1] if none. *)

val write_record : t -> slot -> int
(** Id of the warp instruction that wrote, [-1] if none. *)

val write_atomic : t -> slot -> bool

val same_value : t -> slot -> lo:int -> hi:int -> bool
(** Whether the last write's value has 32-bit halves [lo] and [hi]. *)

val set_write :
  t ->
  slot ->
  clock:int ->
  tid:int ->
  insn:int ->
  atomic:bool ->
  value_lo:int ->
  value_hi:int ->
  record:int ->
  unit
(** Record a write, which clears the reads: read epoch and instruction
    to bottom, not shared.  The value is given as its 32-bit halves.  A
    read clock is cleared and kept, so re-inflating it does not allocate. *)

val read_clock : t -> slot -> int
val read_tid : t -> slot -> int

val read_insn : t -> slot -> int
(** Static instruction id of the last recorded read, [-1] if none.
    Once reads inflate to a clock this is the {e latest} reader's
    instruction, an approximation that keeps the hot path
    allocation-free (no per-thread insn map). *)

val read_shared : t -> slot -> bool
(** Whether the reads are inflated to the slot's read clock. *)

val set_read : t -> slot -> clock:int -> tid:int -> unit
val set_read_insn : t -> slot -> int -> unit

val share_reads : t -> slot -> unit
(** Mark the reads inflated; the slot must have a read clock. *)

val has_read_vc : t -> slot -> bool

val read_vc : t -> slot -> Vclock.Cvc.Mut.t
(** The slot's read clock, owned by the slot; it must be frozen if it
    ever escapes the detector.
    @raise Invalid_argument if the slot has none ({!has_read_vc}). *)

val set_read_vc : t -> slot -> Vclock.Cvc.Mut.t -> unit
(** Give the slot a read clock, which the slot then owns. *)

(** {2 Accounting} *)

val pages : t -> int

val cells : t -> int
(** Cells held: a word summary counts once, as does each byte cell. *)

val byte_cells : t -> int
(** Byte cells the held cells stand for (four per summary, one per
    byte cell): the cell count of a cell-per-byte shadow. *)

val bytes : t -> int
(** Bytes allocated for the shadow's arrays, headers included: every
    page's word slots, the byte slots of pages with a split word, and
    the side table's slots.  The inflated clocks the side table points
    to, and the page table's hash buckets, are not counted. *)
