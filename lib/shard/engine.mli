(** The sharded detection engine: one detector domain per shard.

    One job's shadow state is split across [N] shards by the
    deterministic {!Router}; each shard runs an unchanged
    [Barracuda.Detector] restricted to its cells (the detector's
    [?owns] predicate) over its own bounded SPSC ring of in-place
    cells ({!Barracuda.Wire}), on its own domain.

    The producer {e broadcasts}: every cell — data access,
    branch, barrier, fence-role access — is copied verbatim, as its
    producer sealed it, into every shard's ring; the engine stamps
    nothing.  Each shard therefore observes the identical totally
    ordered stream, so warp clocks, divergence stacks, and
    synchronization state evolve bit-identically on every shard, and
    every shard applies a barrier or release/acquire edge at the same
    stream position without any cross-shard handshake.  Each shard's
    detector validates the producer's checksum and sequence number, so
    every shard counts the same transport anomalies, and the merge
    keeps one count.  Only the shadow-cell {e checks} are partitioned:
    a given cell is checked by exactly one shard, making the per-shard
    race sets disjoint and their union equal to the serial detector's.

    A shard ring is strictly SPSC (the broadcasting producer, the
    shard's consumer domain), so the per-record transport cost is one
    cell blit (280 bytes, plus 2 and 8 per lane value) + commit per
    shard.

    If a shard's consumer domain dies mid-job (fault injection, or a
    real bug), the engine fails the whole job loudly with
    {!Shard_crashed}: a merge over the surviving shards would be a
    silently incomplete verdict. *)

type t

exception Shard_crashed of int
(** A shard's consumer domain died before consuming its full stream;
    the job's verdict is unrecoverable.  Carries the shard index. *)

val create :
  ?fault:Fault.Plan.t ->
  ?config:Barracuda.Detector.config ->
  layout:Vclock.Layout.t ->
  shards:int ->
  Static.Plan.t ->
  t
(** Spawns [shards] consumer domains immediately, each feeding a
    detector under the one plan, each behind a
    2048-cell ring (~1.1 MB), partitioned by [Router.make ~shards ()].
    [fault] is consulted for shard-crash injection only (transport
    faults live in [Gpu_runtime.Session.serial_sink]).
    @raise Invalid_argument on [shards < 1]. *)

val shards : t -> int

val broadcast : t -> Bytes.t -> pos:int -> unit
(** Copy the cell at [pos] of the buffer ({!Barracuda.Wire.copy_cell}),
    byte for byte, into every shard's ring, blocking (with backoff) on any ring that is
    full; the buffer is not retained.  Every record is broadcast.
    @raise Shard_crashed instead of blocking forever on a ring whose
    consumer has died. *)

val quiesce : t -> unit
(** Wait until every shard ring is fully drained {e without} stopping
    the consumers — the barrier behind streaming checkpoints: on
    return, every broadcast record has been detected
    and per-shard state is stable until the producer broadcasts again.
    Producer-side call (same caller as {!broadcast}).
    @raise Shard_crashed if a consumer died, since its ring would
    never drain. *)

val finish : t -> unit
(** Stop producing, drain, and join every consumer domain.
    @raise Shard_crashed if any consumer died.  Idempotent. *)

val abort : t -> unit
(** Like {!finish} but never raises: used on the producer's unwind
    path so domains are joined before the original exception
    propagates. *)

val detectors : t -> Barracuda.Detector.t array
(** Per-shard detectors; meaningful after {!finish}. *)

val report : t -> max_reports:int -> Barracuda.Report.t
(** The merged, deterministic job report (see {!Merge}).  Shards keep
    every race they own and the cap applies here, so the race count
    equals the serial detector's at any cap; the kept races are the
    first [max_reports] in the merge's sorted order.  Call after
    {!finish}. *)

val detect_ns : t -> int64
(** Wall-clock attributable to detection: the busiest consumer
    domain's cumulative time inside [feed_record].  Valid after
    {!finish}. *)

val records : t -> int
(** Records broadcast (stream length, not multiplied by the shard
    count). *)
