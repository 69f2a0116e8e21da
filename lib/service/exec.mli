(** Job execution: one submission through the existing machinery.

    A [Check] job takes the parsed kernel and its check plan from the
    artifact {!Cache} (skipping the front half of the pipeline on a
    hit), then runs the kernel it was sent through
    {!Gpu_runtime.Session.run_stream} under that plan on a fresh
    machine, exactly as [barracuda check] does, so its reply carries
    check's report in check's order — unless the plan's static
    analysis proves the
    kernel racy for the requested layout, which answers the job
    without executing it.  This is the daemon's only static answer:
    every submission reaches it through the scheduler's queue.  A
    [Predict] job deserializes the trace and runs {!Predict.Analysis}.

    A submitted layout with a dimension below 1, or a warp wider than
    a wire record's {!Barracuda.Wire.max_lanes} lanes, fails the job
    with [bad_request] before the cache is consulted.

    {!run} never raises: every failure mode — malformed PTX or trace,
    a bad argument spec, a step-budget timeout, an exception anywhere
    in the pipeline — becomes a structured [Protocol.Failed] response
    for that job, which is what isolates worker crashes from the
    daemon. *)

type config = {
  max_steps : int;
      (** per-job step budget; exceeding it fails the job with code
          ["timeout"] (a domain cannot be killed, so the budget is the
          service's cancellation point) *)
  deadline_ms : int;
      (** per-job wall-clock deadline; [0] (the default) disables it.
          Exceeding it fails the job with code ["deadline"] — the
          backstop for kernels that make steady progress (so the step
          budget never trips) but too slowly to be worth waiting for,
          and the bound on how long a hung worker can hold its seat *)
  job_shards : int;
      (** detector domains per [Check] or stream job: [1] (the
          default) is the serial sink; above that, detection fans out
          across shard domains ({!Shard.Stream.sink}) with
          bitwise-identical verdicts.  A shard domain dying
          mid-job fails the job with code ["shard_crashed"] — never a
          partial merge *)
}

val default_config : config

val default_layout : Vclock.Layout.t
(** The layout used when a submission does not carry one; equals the
    [barracuda check] CLI defaults (2 blocks of 64 threads, warp 32). *)

exception Bad_args of string
(** An argument spec that does not parse, more specs than the kernel
    has parameters, or a submitted layout no detector can check. *)

val resolve_args :
  Simt.Machine.t -> Ptx.Ast.kernel -> string list -> int64 array
(** CLI-syntax argument resolution ([alloc:BYTES] / [int:V] / bare
    integer; missing arguments become [alloc:4096]).
    @raise Bad_args on a bad spec or too many arguments. *)

val static_report :
  Static.Analysis.t -> layout:Vclock.Layout.t -> Barracuda.Report.t option
(** Detector-shaped report of the racy pairs the layout can realize
    ({!Static.Analysis.realizable_pairs}), with representative thread
    ids; [None] when no pair is realizable. *)

val run :
  ?config:config -> cache:Cache.t -> job:int -> Protocol.submit ->
  Protocol.response
(** Always a [Result] or [Failed]; [queue_ms]/[run_ms] are left zero
    for the scheduler to fill in.  A [Check] whose kernel the static
    analysis proves racy for the requested layout is answered without
    executing it (outcome flagged [static], counted in
    [barracuda_service_static_fast_total]); its cache lookup counts a
    hit or a miss like any other. *)

val stream_open :
  ?config:config -> cache:Cache.t -> Protocol.submit ->
  Gpu_runtime.Session.stream
(** Open a streaming session for a daemon stream job: artifacts from
    the same cache as batch checks, backend (serial or [job_shards]
    shard domains) chosen exactly as {!run} chooses it — streamed and
    batch verdicts are bitwise identical by construction.  Unlike
    {!run} this {e does} raise (malformed PTX, etc.); callers convert
    with {!error_response}.  Must run on a scheduler session seat, not
    a connection thread. *)

val error_response : job:int -> exn -> Protocol.response
(** The failure mapping {!run} applies — [parse_error], [bad_request]
    (including stream framing errors), [shard_crashed], [timeout]…  —
    exposed for the daemon's streaming handlers, which manage their
    own exception boundary. *)
