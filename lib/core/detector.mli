(** The BARRACUDA race detector (optimized, record-driven).

    Consumes sealed fixed-size warp records ({!Wire}) in place, as the
    real system's host detector consumes the records drained from the
    GPU queues (§4.2), and implements the operational semantics of
    Figures 2–3 with all of the paper's optimizations:

    - per-thread vector clocks compressed at warp granularity
      ({!Warp_clocks}: CONVERGED / DIVERGED / NESTEDDIVERGED / SPARSEVC);
    - epochs + on-demand read-clock inflation in shadow memory
      ({!Shadow}), allocated page-wise on first touch;
    - one check per aligned 4-byte word through a word-summary cell,
      with each race still reported once per byte (§4.3.3's remark,
      lossless);
    - synchronization locations in their own map ({!Sync_loc});
    - block barriers via a broadcast of the block's maximum clock;
    - same-value intra-warp write filtering (§3.3.1);
    - barrier-divergence detection.

    {!Shadow} and {!Warp_clocks} are submodules, not units of their
    own: a lane's check calls into them ten times or more, and across
    units a build with [-opaque] (dune's dev profile) makes each such
    call an unknown call that is never inlined.

    Acquire/release roles, and the accesses that need no check, come
    from the kernel's check plan ({!Static.Plan}).  {!feed_record} is
    the only input;
    [Gpu_runtime.Session.run_stream] executes a kernel into it.  On any
    trace the reports must match {!Reference}; the test suite enforces
    this. *)

type config = { max_reports : int; filter_same_value : bool }

val default_config : config

type stats = {
  accesses_checked : int;  (** thread-level access operations processed *)
  records_processed : int;  (** wire records fed, skipped ones included *)
  planned_out : int;
      (** intact access records skipped unchecked: the plan proves
          their instruction safe on this launch *)
  ptvc_converged : int;  (** census: warp format observed per record *)
  ptvc_diverged : int;
  ptvc_nested : int;
  ptvc_sparse : int;
  shadow_pages : int;
  shadow_cells : int;  (** cells held, a word summary counting once *)
  shadow_byte_cells : int;
      (** byte cells those stand for: a cell-per-byte shadow's count *)
  shadow_bytes : int;
      (** bytes allocated for the shadow's page arrays and read-clock
          side table ({!Shadow.bytes}) *)
  sync_locations : int;
  ptvc_bytes : int;  (** compressed PTVC footprint at the end of the run *)
  full_vc_bytes : int;  (** what uncompressed per-thread VCs would need *)
}

type t
(** A detector has a single owner.  Only one thread at a time may feed
    it ({!feed_record}) or read it ({!report}, {!stats}), and
    it passes between threads or domains only through a synchronising
    operation ([Domain.join], a mutex, an atomic).  Nothing inside it
    is locked: neither the shadow cells (the paper's per-location lock,
    Fig. 8) nor the report, the sync map or the counters.  Sharded
    detection partitions shadow cells between detectors ([owns])
    rather than sharing them.  The owners:
    - the serial sink ([Gpu_runtime.Session.serial_sink]) feeds inline
      on the producer's thread;
    - shard [i]'s consumer domain feeds shard [i]'s detector
      ([Shard.Engine]); the main domain reads it only after
      [Domain.join], or after [quiesce] has seen the ring's atomic
      indices drain;
    - a daemon stream session runs every call on its seat's domain, and
      a check job stays on one worker domain;
    - every other caller creates, feeds and reads its detector within
      one call. *)

val create :
  ?config:config ->
  ?owns:(Ptx.Ast.space -> int -> int -> bool) ->
  layout:Vclock.Layout.t ->
  Static.Plan.t ->
  t
(** A detector for launches of the plan's kernel.  It takes each
    instruction's role from the plan, and skips every access record
    whose instruction {!Static.Plan.drops} marks for [layout].

    [owns] is the shadow ownership predicate used by sharded
    detection ([Shard.Engine]): called as [owns space region index] for
    every byte a data access covers, before its cell (or page) is
    materialized.  Bytes it rejects are neither allocated nor checked,
    and a word gets a summary cell ({!Shadow.summary}) only if it
    accepts all four of the word's bytes; everything else — warp clocks, divergence stack, sync
    locations, barriers — still processes the full record stream, so a
    detector restricted by [owns] has bit-identical clock state to an
    unrestricted one and reports exactly the subset of races whose
    location it owns.  Omitted (the default): all cells are checked.

    @raise Invalid_argument if [layout]'s warp is wider than the
    {!Wire.max_lanes} (32) lane slots of a record: the lanes beyond
    them could never be checked. *)

val feed_record : t -> Bytes.t -> pos:int -> unit
(** Consume one cell ({!Wire}: the sealed 280-byte record, its value
    count and lane values) in place at offset [pos] of [buf], without
    decoding it into an event — the steady-state path is
    allocation-free.  The view is only read for the duration of the
    call (for queue rings: the slot may be released as soon as this
    returns).  A buffer ending with the record is a cell with no values
    (the same-value write filter then compares zeros).

    The record must have been {!Wire.seal}ed by its producer: magic,
    version, checksum, value count and sequence number are validated
    first (one producer per detector, so one expected-next sequence
    number), and any anomaly (corruption, loss, duplication) is counted
    in the [barracuda_transport_integrity_*] metrics, noted on the
    report (degrading the verdict), and absorbed without raising; a
    count that {!Wire.value_count} rejects is corrupt.  An intact,
    in-sequence access record of an instruction the plan drops is then
    skipped whole, as if it had never been logged: it gets no record
    id, no census count and no clock join, and counts only in
    [planned_out].  This is
    the only check: record sinks, shard rings and streaming sessions
    pass the producer's record through verbatim.  The metrics count
    per detector, so a sharded run, whose every shard sees the whole
    stream, counts an anomaly once per shard.  A record
    with an unknown opcode, or naming a warp, instruction or block
    outside the detector's layout and kernel, is counted as corrupt
    and skipped instead of raising.  With telemetry on, the detector's
    own counts reach the [barracuda_detector_*] counters once per
    record. *)

val report : t -> Report.t
val stats : t -> stats

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
    - a {e word summary} ({!Shadow.summary}) is one cell standing for the four
      bytes of a 4-aligned word.  It is created only for a word none of
      whose bytes holds a cell yet, so its four bytes start, and (as
      long as only whole-word accesses reach it) stay, in the same
      state;
    - the first byte-level lookup of a summarized word ({!Shadow.cell})
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

    {b Handles.}  {!Shadow.summary} and {!Shadow.cell} return a
    {!Shadow.slot}, an int naming a slot of the array the lookup went
    to.  The accessors below read and write its fields.  A handle is
    valid until the next lookup on the same shadow, which may move to
    another array; callers look a cell up, use it, and drop it.

    A shadow memory belongs to its detector, under {!Detector.t}'s
    single-owner contract, and takes no locks.  A one-entry page cache
    answers repeated hits to the same page. *)
module Shadow : sig
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
end

(** Compressed per-thread vector clocks, managed at warp granularity
    (the paper's PTVC scheme, §4.3.1, Figure 7).

    The full vector clock of an active thread [t] in warp [w] is never
    materialized; it is represented as the maximum of four layers:

    - its {e own} entry (one int per lane, [own]);
    - entries for warp-mates, from the current divergence frame: [local]
      for lanes active on the same path, frozen snapshot values ([sib])
      for lanes suspended on the other path of a branch;
    - a per-warp {e block clock}: the last time the warp synchronized
      with the rest of its block (block barriers);
    - an optional per-lane {e overlay} ({!Vclock.Cvc.t}) holding
      entries gained through acquire operations — arbitrary
      point-to-point synchronization.

    These layers correspond exactly to the paper's four formats — a warp
    with no divergence and no overlays is CONVERGED; one frozen scalar is
    DIVERGED; per-lane frozen values are NESTEDDIVERGED; overlays make
    it SPARSEVC — and {!Warp_clocks.format_of} reports which one a warp
    is in, feeding the compression ablation.

    Joins at [endi]/branch/barrier points renormalize the active lanes to
    a common clock (the maximum involved).  This "clock skipping" is
    race-transparent — it only ever raises a thread's {e own} entry,
    never another thread's view of it beyond that thread's own epochs —
    and is what keeps every format O(warp) instead of O(grid).  The
    equivalence with the literal semantics is checked against
    {!Reference} by the test suite.

    Overlays are {!Vclock.Cvc.Mut} values under copy-on-write
    ownership: a join point installs one shared union clock into every
    active lane, an acquire copies a shared overlay before raising it
    in place, and the steady state (no live overlays) allocates
    nothing.  Clocks leave the warp only as persistent snapshots —
    {!Warp_clocks.materialize} and {!Warp_clocks.overlay_union} freeze
    on the way out — so no mutable clock is ever visible outside the
    domain that owns the warp. *)
module Warp_clocks : sig
  type t

  type format = Converged | Diverged | Nested_diverged | Sparse_vc

  val create : Vclock.Layout.t -> warp:int -> t
  val block : t -> int
  (** The warp's block. *)

  val first_tid : t -> int
  (** Global thread id of lane 0: lane [l] is thread [first_tid t + l]. *)

  val active_mask : t -> int
  val depth : t -> int
  (** Divergence-stack depth (1 = converged). *)

  val own_clock : t -> lane:int -> int
  val epoch : t -> lane:int -> Vclock.Epoch.t
  (** Current epoch [E(t)] of a lane. *)

  val entry : t -> lane:int -> tid:int -> int
  (** [entry t ~lane ~tid] is [C_lane(tid)]: the full-clock entry that the
      thread at [lane] holds for thread [tid]. *)

  val join_fork : t -> mask:int -> unit
  (** The [endi] operation: join the clocks of [mask]'s lanes and fork
      them one tick later. *)

  val push_if : t -> then_mask:int -> else_mask:int -> unit
  (** Divergence: freeze the current view for the else path, then
      join-fork the then path. *)

  val path_depth : t -> int
  (** Divergence frames currently on the stack, counting the root frame:
      [1] means no divergence is open and {!pop_path} would raise.
      Lossy-transport consumers probe this to skip an else/fi whose
      opening [branch_if] record was lost. *)

  val pop_path : t -> mask:int -> unit
  (** An [else] or [fi]: pop one divergence frame, activate [mask] (which
      may exclude lanes that retired inside the branch), and join-fork
      it. [mask = 0] just pops.
      @raise Invalid_argument when only the root frame remains. *)

  val acquire : t -> lane:int -> Vclock.Cvc.t -> unit
  (** Join an acquired synchronization clock into one lane's overlay. *)

  val release_increment : t -> lane:int -> unit
  (** Bump one lane's own clock (the increment a release performs). *)

  val materialize : t -> lane:int -> Vclock.Cvc.t
  (** The lane's full clock as a compressed value (what a release
      publishes to [S_x]). *)

  val to_vector_clock : t -> lane:int -> Vclock.Vector_clock.t
  (** Explicit expansion, for tests on small grids. *)

  val max_own : t -> int
  (** Maximum own-clock across all lanes (live and retired): the warp's
      contribution to a block barrier. *)

  val apply_barrier : t -> clock:int -> overlay:Vclock.Cvc.t option -> unit
  (** Block barrier: renormalize live lanes to [clock], freeze retired
      lanes at their final clocks, raise the block clock, and install the
      block-wide overlay union. *)

  val block_clock : t -> int
  val overlay_union : t -> Vclock.Cvc.t option
  (** Join of the live lanes' overlays (for barrier propagation). *)

  val format_of : t -> format
  val footprint_bytes : t -> int
  (** Approximate metadata bytes this warp's PTVC occupies, mirroring the
      paper's 16-byte stack entries. *)

  val pp_format : Format.formatter -> format -> unit
end
