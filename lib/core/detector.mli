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
