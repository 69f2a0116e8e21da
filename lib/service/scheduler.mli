(** Bounded job queue and self-healing worker pool.

    Submissions enter per-tenant FIFOs behind a shared capacity bound;
    a pool of OCaml 5 domains drains them with deficit round-robin,
    each job running the full checking machinery on its worker.  When
    the shared queue is at capacity a submission is turned away
    immediately with a [Rejected] response carrying a retry hint —
    explicit backpressure instead of unbounded buffering, matching the
    GPU→host queues' discipline one layer up.

    {2 Multi-tenancy}

    Every job belongs to a tenant ([Protocol.submit.tenant], defaulting
    to ["default"]).  Each tenant owns a private FIFO; workers visit
    the tenant ring with deficit round-robin (equal quanta, unit job
    cost), so a tenant with a deep backlog cannot starve one with a
    shallow one.  Tenants named in [config.tenant_quotas] are
    additionally admission-controlled by a token bucket ([rate] jobs/s
    refill, [burst] capacity) — a dry bucket rejects with reason
    ["tenant_quota"] and an exact refill hint — and capped to [seats]
    concurrent jobs in flight, a seat-capped backlog simply waiting its
    turn without occupying a worker.  Unknown tenants are admitted
    without limits (they still get fair-share scheduling).

    The [exec] callback is expected not to raise ({!Exec.run}); as a
    second line of defense any exception it does raise is converted to
    a [Failed] response.  An exception that escapes a job's run {e
    outside} [exec] (an injected crash, or a bug beyond its reach) is
    recovered by the worker itself, on the same domain: it puts the job
    back at its tenant's tail (or, after two crash-restarts,
    quarantines it with a [Failed] response, code ["quarantined"]) and
    takes its next job.  The daemon survives; the client always gets an
    answer.

    A {e hung} worker cannot be killed (OCaml domains are not
    cancellable), so hangs are bounded one layer down by the per-job
    wall-clock deadline ({!Exec.config.deadline_ms}).

    Alongside the batch worker pool the scheduler owns a small number
    of long-lived {e session seats} for streaming jobs.  A seat is a
    dedicated domain onto which connection threads rendezvous closures
    with {!session_call} — streaming detector compute must not run on
    the daemon's connection sys-threads, which all share the accept
    domain.  Seats are bounded ([config.session_seats]); when all are
    occupied an open attempt returns [None] and the daemon answers
    with backpressure, so batch workers and streaming sessions coexist
    without starving each other.

    Telemetry: [barracuda_service_jobs_total{verdict=...}] (racy /
    race_free / failed / rejected), the
    [barracuda_service_workers_restarted_total] and
    [barracuda_service_jobs_quarantined_total] counters, the
    [barracuda_service_queue_depth], [barracuda_service_busy_workers]
    and [barracuda_service_open_sessions] gauges (all pinned to 0 by
    {!stop}), the [barracuda_service_queue_wait_ms] /
    [barracuda_service_job_run_ms] latency histograms, and — labeled
    by tenant — the [barracuda_service_tenant_queued] /
    [barracuda_service_tenant_inflight] gauges (also zeroed by
    {!stop}), the [barracuda_service_tenant_jobs_total{event=...}]
    counters (submitted / completed / rejected) and the
    [barracuda_service_tenant_latency_ms] end-to-end histogram. *)

type quota = {
  rate : float;
      (** sustained admission rate, jobs/second ([<= 0.] = unlimited;
          the bucket refills continuously, so fractional rates work) *)
  burst : int;
      (** token-bucket capacity: jobs admitted back-to-back after an
          idle spell (clamped to at least 1 when rate-limited) *)
  seats : int;
      (** concurrent jobs in flight on workers ([<= 0] = unlimited);
          excess backlog waits in the tenant's queue without occupying
          a worker *)
}

type config = {
  workers : int;
  queue_capacity : int;  (** shared bound across all tenant queues *)
  session_seats : int;
      (** dedicated domains for long-lived streaming sessions (0
          disables streaming) *)
  fault : Fault.Plan.t option;
      (** seeded fault injection: planned worker crashes fire at job
          pickup.  [None] (the default) is the production path. *)
  tenant_quotas : (string * quota) list;
      (** per-tenant admission control; tenants not listed are
          unlimited but still scheduled fairly *)
}

val default_config : config
(** 2 workers, capacity 64, 2 session seats, no faults, no quotas. *)

val default_tenant : string
(** The tenant jobs without an explicit tenant id join: ["default"]. *)

val retry_after_ms : int
(** The retry hint, 50 ms, carried by queue-full and shutdown rejects
    and by the daemon's [sessions_exhausted] (quota rejects compute
    their own exact refill hint). *)

type counts = Protocol.jobs = {
  submitted : int;
  completed : int;
  failed : int;  (** includes quarantined jobs *)
  rejected : int;  (** queue-full, shutdown and quota rejects alike *)
  racy : int;
  race_free : int;
  quarantined : int;  (** jobs failed after exhausting crash-restarts *)
  workers_restarted : int;  (** worker crashes recovered, one per crash *)
}
(** The [jobs] counts of a daemon's status reply. *)

type t

val create :
  ?config:config ->
  exec:(job:int -> Protocol.submit -> Protocol.response) ->
  unit ->
  t
(** Spawns the worker and session-seat domains immediately.  The
    default tenant and every quota'd tenant are seated up front (stable
    ring order); others join lazily on first submission.
    @raise Invalid_argument on a non-positive worker count or
    capacity, a negative [session_seats], or a
    quota with a negative rate, burst or seat count (or an empty
    tenant name). *)

val submit :
  t -> Protocol.submit -> reply:(Protocol.response -> unit) -> unit
(** Enqueue a job under its tenant: the daemon's one way to a job's
    answer, provably racy submissions included (their worker answers
    them without executing).  [reply] is invoked exactly once —
    with [Rejected] synchronously when the shared queue is full, the
    scheduler is stopping, or the tenant's token bucket is dry (reason
    ["tenant_quota"], retry hint = time until a token accrues);
    otherwise from a worker domain with the job's [Result] or [Failed]
    (timings filled in), or [Failed {code = "quarantined"}] if the job
    kept crashing its worker.  A worker calls [reply] outside the
    scheduler's lock (the daemon's [reply] writes the frame to the
    client there).  Exceptions from [reply] are swallowed: a client
    that hung up cannot hurt the worker. *)

val depth : t -> int
(** Jobs waiting across every tenant queue. *)

val busy : t -> int
val counts : t -> counts

val tenant_status : t -> Protocol.tenant_status list
(** Per-tenant snapshot, sorted by tenant name: queue depth, inflight,
    lifetime submit/complete/reject counters and p50/p99 end-to-end
    latency estimated from the tenant's latency histogram buckets
    (upper-bound estimate; 0 before the first completion). *)

(** {1 Streaming-session seats} *)

type seat
(** A claimed session seat: a dedicated domain a single streaming
    session runs on.  A seat serves one session at a time; calls on it
    must come from one thread at a time (the daemon serializes them
    per connection). *)

val session_open : t -> seat option
(** Claim a free seat, bumping the [barracuda_service_open_sessions]
    gauge.  [None] when every seat is occupied or the scheduler is
    stopping — answer with backpressure. *)

val session_call : seat -> (unit -> 'a) -> 'a
(** Run [f] on the seat's domain and return its result; exceptions
    propagate to the caller.  Raises [Failure] once the scheduler is
    stopping. *)

val session_close : t -> seat -> unit
(** Release the seat for the next session.  Idempotent. *)

val sessions : t -> Protocol.sessions
(** Seats configured, currently occupied, and sessions ever opened: the
    [sessions] object of a daemon's status reply. *)

val stop : t -> unit
(** Stop accepting work, let the workers finish everything already
    queued (a job that crashes its worker is still retried or
    quarantined), join the workers and the session seats (an in-flight
    {!session_call} completes first), and zero {e every}
    scheduler-owned gauge — queue depth, busy workers, open sessions
    and the per-tenant queued/inflight gauges — so a post-shutdown
    scrape reports no ghost activity.  The first call does all this; a
    later one returns at once.  Safe to call from any domain or
    thread. *)
