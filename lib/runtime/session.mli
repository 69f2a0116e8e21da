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
    of cells ({!Stream}) at arbitrary byte boundaries, checkpointed for a verdict-so-far, and closed for the
    final verdict.  The same {!sink} abstraction also drives batch
    execution ({!run_stream}). *)

(** {1 Record sinks}

    A sink is one incremental consumer of cells ({!Barracuda.Wire}: a
    sealed wire record, its value count and lane values) — the seam
    between the streaming-session core and a detection backend.  The
    serial backend ({!serial_sink}) feeds a single
    {!Barracuda.Detector} in place; the sharded backend
    ([Shard.Stream.sink]) copies each cell into the shard engine's SPSC
    rings.  Only the producer seals a record ({!run_stream}, or
    whichever run recorded a stream); a sink takes the cell as it is,
    and the detector's checksum and sequence check is the only one. *)

type sink = {
  feed : Bytes.t -> pos:int -> unit;
      (** consume the cell at [pos] of the buffer, for the duration of
          the call only (the contract of [Detector.feed_record]) *)
  quiesce : unit -> unit;
      (** wait until every record fed so far is fully detected — the
          barrier behind checkpoints.  May raise the backend's failure
          exception (e.g. [Shard_crashed]). *)
  sink_report : max_reports:int -> Barracuda.Report.t;
      (** verdict over everything detected so far; call only when
          quiesced (or after [finish]) *)
  finish : unit -> unit;
      (** complete ingestion; raises if the backend failed *)
  abort : unit -> unit;  (** tear down without raising *)
  detect_ns : unit -> int64;
      (** cumulative detector time (final after [finish]); before
          [finish], only the time spent inline in [feed] *)
  sink_records : unit -> int;  (** records fed, anomalous ones included *)
}

val serial_sink : ?fault:Fault.Plan.t -> Barracuda.Detector.t -> sink
(** The single-detector backend over a detector the caller created
    (and may read, e.g. [Detector.stats], once the run is finished):
    [feed] hands the record to [Detector.feed_record] synchronously on
    the producer's thread, which owns the detector; [quiesce] is a
    no-op (nothing is in flight).  [fault]'s transport faults (bit
    flips, drops, duplicates, delays) are applied to each record before
    the detector sees it, and a flipped bit is flipped back afterwards;
    [finish] feeds any record still held back by a delay. *)

(** {1 Running a kernel}

    {!run_stream} is the one way a kernel is executed into the
    wire-record detector: a batch check is a streaming session whose
    producer is the simulator, so any chunking of a recorded stream
    reproduces the batch race set bitwise. *)

type stream_result = {
  sr_report : Barracuda.Report.t;
  sr_machine_result : Simt.Machine.result;
  sr_records : int;  (** records fed to the sink *)
  sr_detect_ns : int64;
      (** the backend's detector time (the busiest shard's for the
          sharded sink); measured with telemetry on or off *)
}

val run_stream :
  ?detector:Barracuda.Detector.config ->
  ?plan:Static.Plan.t ->
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
(** Execute [kernel] on [machine], feed every logged event to [sink]
    as a wire record sealed with the run's next sequence number (from
    0), finish the sink and return its verdict.

    - [sink] defaults to {!serial_sink} with [fault], over a detector
      created with [detector] under [plan] (default: the kernel's
      memoized plan, {!Static.Plan.of_kernel}); a caller-supplied sink (e.g.
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
    - [capture] appends every cell as the sink received it: the
      recorder behind [check --record].
    - [tap] observes every simulator event (fences and kernel-done
      included) before it is serialized, with the executed kernel's
      instruction ids.

    With telemetry enabled, records the ["execute"] span (the launch
    minus the detector time the sink spent inline: simulation, logging
    and sealing) and the ["detect"] span (the sink's detector time).

    @raise Invalid_argument when the default sink's detector rejects
    the machine's layout: a warp wider than a record's 32 lanes. *)

val profile_stages : (string * string list) list
(** The stage spans of an instrumented run, in pipeline order, each
    with the spans recorded inside it: ["instrument"] (the pass, with
    ["static.analyze"]), ["execute"] and ["detect"] (with
    ["detector.feed_record"]).  The rows of [barracuda profile]
    ({!Telemetry.Span.breakdown}). *)

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
    Chunks split cells at arbitrary byte boundaries; the session only
    reassembles them and hands each cell, as its producer sealed it,
    to the sink.  Nothing is checked or resealed here: the detector
    validates a streamed record exactly as it does a batch run's, so
    any chunking yields exactly the batch race set. *)

type stream

type progress = {
  p_records : int;
      (** records accepted so far: cells received minus those the
          detector counted corrupt or stale *)
  p_race_count : int;
  p_has_race : bool;
  p_degraded : bool;  (** any transport anomaly absorbed *)
  p_integrity : Barracuda.Report.integrity;
      (** the detector's transport-integrity counts (for the sharded
          backend, the merge of the shards' identical counts) *)
  p_errors : Barracuda.Report.error list;
  p_checkpoints : int;
  p_final : bool;  (** from {!close_stream}: ingestion is complete *)
}

val open_stream :
  ?sink:sink ->
  ?detector:Barracuda.Detector.config ->
  ?plan:Static.Plan.t ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  stream
(** Open a streaming session.  Default backend: {!serial_sink}, over a
    detector under [plan] (default: {!Static.Plan.of_kernel}), as in
    {!run_stream}.
    Telemetry: the open-sessions gauge
    [barracuda_session_open_streams] rises until close/abort. *)

val feed_chunk : stream -> ?pos:int -> ?len:int -> string -> unit
(** Feed a chunk of stream bytes (any framing).  The detector counts
    and skips corrupt and stale records and counts sequence gaps, all
    surfaced through {!progress.p_integrity}/[p_degraded].  Counts the
    cells received in [barracuda_session_stream_records_total].
    @raise Stream.Framing if the bytes cannot be a cell sequence.
    @raise Invalid_argument on a closed stream. *)

val checkpoint : stream -> progress
(** Quiesce the sink (every record fed so far fully detected — for the
    sharded backend this waits for all shard rings to drain) and return
    the verdict-so-far.  Observes the checkpoint-latency histogram
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
(** Cells received so far ([sink_records]), anomalous ones included:
    readable between feeds without quiescing the sink. *)

val stream_detect_ns : stream -> int64
