(** Sessions: the host-side lifecycle around kernels (§4.1), in two
    planes.

    {b Multi-launch sessions} ({!t}) model the deployed BARRACUDA
    living in the target process across kernel launches: device memory
    persists, each launch is instrumented and checked, and a
    [cudaDeviceReset] must wait until the log queues are fully drained
    before the backing memory is released, after which the runtime
    reinitializes on the next call.

    Launches are serialized (one stream): everything a launch did is
    ordered before the next launch begins, so each launch is checked
    with fresh clocks while device memory carries over — two launches
    never race with one another, only within themselves.

    {b Streaming sessions} ({!stream}) are the incremental core every
    frontend shares: a session is opened against a kernel, fed chunks
    of sealed wire records ({!Stream} cells) at arbitrary byte
    boundaries, checkpointed for a verdict-so-far, and closed for the
    final verdict.  The same {!sink} abstraction also drives batch
    execution ({!run_stream}). *)

(** {1 Record sinks}

    A sink is one incremental consumer of sealed wire records — the
    seam between the streaming-session core and a detection backend.
    The serial backend ({!serial_sink}) feeds a single
    {!Barracuda.Detector} in place; the sharded backend
    ([Shard.Stream.sink]) broadcasts into the shard engine's SPSC
    rings.  Producers serialize a record directly into {!sink.stage}
    (at offset 0) and call {!sink.submit}, which seals it with the
    sink's own monotonic sequence number and ingests it. *)

type sink = {
  stage : Bytes.t;
      (** staging buffer, at least [Barracuda.Wire.size] bytes; the
          next record is written at offset 0 *)
  submit : values:int64 array -> sync:bool -> unit;
      (** seal the staged record and feed it; [sync] marks
          synchronization records for epoch accounting *)
  quiesce : unit -> unit;
      (** wait until every record submitted so far is fully detected —
          the epoch-aligned barrier behind checkpoints.  May raise the
          backend's failure exception (e.g. [Shard_crashed]). *)
  sink_report : max_reports:int -> Barracuda.Report.t;
      (** verdict over everything detected so far; call only when
          quiesced (or after [finish]) *)
  finish : unit -> unit;
      (** complete ingestion; raises if the backend failed *)
  abort : unit -> unit;  (** tear down without raising *)
  detect_ns : unit -> int64;
      (** cumulative detector time (final after [finish]); before
          [finish], only the time spent inline in [submit] *)
  sink_records : unit -> int;  (** records ingested *)
}

val serial_sink : ?fault:Fault.Plan.t -> Barracuda.Detector.t -> sink
(** The single-detector backend over a detector the caller created
    (and may read, e.g. [Detector.stats], once the run is finished):
    [submit] seals and feeds the staged record synchronously via
    [Detector.feed_record] on the producer's thread, which owns the
    detector; [quiesce] is a no-op (nothing is in flight).  [fault]'s
    transport faults (bit flips, drops, duplicates, delays) are applied
    to each sealed record before the detector sees it; [finish] feeds
    any record still held back by a delay. *)

(** {1 Running a kernel}

    {!run_stream} is the one way a kernel is executed into the
    wire-record detector: a batch check is a streaming session whose
    producer is the simulator, so any chunking of a recorded stream
    reproduces the batch race set bitwise. *)

type stream_result = {
  sr_report : Barracuda.Report.t;
  sr_machine_result : Simt.Machine.result;
  sr_records : int;  (** records submitted to the sink *)
  sr_detect_ns : int64;
      (** the backend's detector time (the busiest shard's for the
          sharded sink); measured with telemetry on or off *)
}

val run_stream :
  ?detector:Barracuda.Detector.config ->
  ?sink:sink ->
  ?max_steps:int ->
  ?deadline_ns:int64 ->
  ?fault:Fault.Plan.t ->
  ?inst:Instrument.Pass.result ->
  ?capture:Buffer.t ->
  ?tap:(Simt.Event.t -> unit) ->
  machine:Simt.Machine.t ->
  Ptx.Ast.kernel ->
  int64 array ->
  stream_result
(** Execute [kernel] on [machine], submit every logged event to [sink]
    as a sealed wire record, finish the sink and return its verdict.

    - [sink] defaults to {!serial_sink} with [fault], over a detector
      created with [detector]; a caller-supplied sink (e.g.
      [Shard.Stream.sink]) is finished here, or aborted if execution
      raises.  Either way [detector]'s [max_reports] caps the returned
      report.
    - [fault]'s machine faults go to the simulator; its transport
      faults to the default serial sink.
    - [inst] runs the instrumented kernel instead, remapping
      instruction ids (of accesses, branches and barrier divergences)
      to the original kernel and dropping the accesses whose logging it
      pruned.  Without it the original kernel runs and every event is
      logged.
    - [capture] appends every submitted record as a sealed {!Stream}
      cell, values included: the recorder behind [check --record].
    - [tap] observes every simulator event (fences and kernel-done
      included) before it is serialized, with the executed kernel's
      instruction ids.

    With telemetry enabled, records the ["execute"] span (the launch
    minus the detector time the sink spent inline: simulation, logging
    and sealing) and the ["detect"] span (the sink's detector time).

    @raise Invalid_argument when the default sink's detector rejects
    the machine's layout: a warp wider than a record's 32 lanes. *)

(** {1 Multi-launch sessions} *)

type rollup = {
  r_kernel : string;  (** kernel name *)
  r_ns : int64;  (** monotonic launch duration *)
  r_records : int;  (** records shipped to the detector *)
  r_races : int;  (** distinct races reported *)
}
(** Per-launch telemetry rollup.  Durations use the monotonic clock
    and are collected unconditionally; when telemetry is enabled each
    launch additionally records a ["launch"] span and session counters
    in {!Telemetry.Registry.default}. *)

type t

val create : layout:Vclock.Layout.t -> unit -> t

val machine : t -> Simt.Machine.t
(** The device: persistent across launches until a reset. *)

val launch :
  ?max_steps:int -> t -> Ptx.Ast.kernel -> int64 array -> stream_result
(** Instrument (block + static pruning, as deployed), execute and
    race-check one kernel through {!run_stream}. *)

val device_reset : t -> unit
(** Drain-and-reset: all records of prior launches are consumed (they
    already are — [launch] drains before returning, mirroring the
    delayed reset), device global memory is cleared, and the next
    launch runs against a reinitialized device. *)

val launches : t -> int
(** Launches since creation (not cleared by resets). *)

val resets : t -> int

val reports : t -> (string * Barracuda.Report.t) list
(** Per-launch reports, oldest first: (kernel name, report). *)

val rollups : t -> rollup list
(** Per-launch telemetry rollups, oldest first. *)

val total_races : t -> int

(** {1 Streaming sessions}

    The incremental lifecycle: open → feed chunks of sealed wire
    records → checkpoint (verdict-so-far) → close (final verdict).
    Chunks split cells at arbitrary byte boundaries; reassembly,
    integrity validation (checksum + sequence continuity, mirroring
    the detector's own transport tracking) and re-sealing happen here,
    so the backend always sees a contiguous intact stream and any
    chunking yields exactly the batch race set. *)

type stream

type progress = {
  p_records : int;  (** records accepted so far *)
  p_race_count : int;
  p_has_race : bool;
  p_degraded : bool;
      (** any transport anomaly absorbed (session- or detector-level) *)
  p_integrity : Barracuda.Report.integrity;
      (** session-level validation counts merged with the backend's *)
  p_errors : Barracuda.Report.error list;
  p_checkpoints : int;
  p_final : bool;  (** from {!close_stream}: ingestion is complete *)
}

val open_stream :
  ?sink:sink ->
  ?detector:Barracuda.Detector.config ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  stream
(** Open a streaming session.  Default backend: {!serial_sink}.
    Telemetry: the open-sessions gauge
    [barracuda_session_open_streams] rises until close/abort. *)

val feed_chunk : stream -> ?pos:int -> ?len:int -> string -> unit
(** Feed a chunk of stream bytes (any framing).  Corrupt records are
    counted and skipped; sequence gaps and stale records are counted —
    all surfaced through {!progress.p_integrity}/[p_degraded].
    @raise Stream.Framing if the bytes cannot be a cell sequence.
    @raise Invalid_argument on a closed stream. *)

val checkpoint : stream -> progress
(** Quiesce the sink (every accepted record fully detected — for the
    sharded backend this waits for all shard rings to drain, aligning
    the checkpoint with a broadcast epoch) and return the
    verdict-so-far.  Observes the checkpoint-latency histogram
    [barracuda_session_checkpoint_ms] and updates the per-session
    throughput gauge [barracuda_session_records_per_sec]. *)

val close_stream : stream -> progress
(** Finish the sink and return the final verdict ([p_final = true]).
    Raises the backend's failure (e.g. [Shard_crashed]) if detection
    died; the stream is then still open and must be {!abort_stream}ed. *)

val abort_stream : stream -> unit
(** Tear down without a verdict; never raises.  Idempotent, and safe
    after {!close_stream}. *)

val stream_records : stream -> int
val stream_detect_ns : stream -> int64

(** {1 Op-plane sessions}

    The same incremental lifecycle over abstract trace operations
    ({!Gtrace.Op}) instead of wire records: one operation at a time
    into the reference detector via [Reference.step], with a
    verdict-so-far available between feeds.  [Replay.run] and the
    predictive analysis' trace ingestion are thin drivers over this
    plane, so a replayed trace is judged by the same incremental core
    a live session is. *)

type ops

val open_ops :
  ?max_reports:int ->
  ?filter_same_value:bool ->
  layout:Vclock.Layout.t ->
  unit ->
  ops

val feed_op : ops -> Gtrace.Op.t -> unit
(** @raise Invalid_argument on a closed op-session. *)

val feed_ops : ops -> Gtrace.Op.t list -> unit

val ops_fed : ops -> int
(** Operations fed so far. *)

val ops_report : ops -> Barracuda.Report.t
(** Verdict-so-far; callable between feeds (the reference detector is
    synchronous, so nothing is in flight). *)

val close_ops : ops -> Barracuda.Report.t
(** Final verdict; further feeds raise. *)
