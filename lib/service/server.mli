(** The race-checking daemon.

    Listens on a Unix domain socket, speaks the newline-delimited JSON
    {!Protocol}, and dispatches submissions to a {!Scheduler} worker
    pool backed by the shared artifact {!Cache}.

    Concurrency shape: one accept domain; each accepted connection is
    read on a lightweight thread of that domain (so a slow or silent
    client never blocks other clients).  A connection carries any
    number of requests, each answered in order by its thread, which
    waits for a submitted job's result and writes it itself, so the
    thread owns its descriptor on every path.  A connection that sends
    nothing for 30 s is dropped.

    Streaming sessions ([stream_open]/[append]/[flush]/[close]) are
    long-lived: the connection stays open for the session's lifetime,
    each request answered in order.  Session compute runs on a
    scheduler session seat (a dedicated domain), never on the
    connection thread; when every seat is occupied an open attempt is
    answered with [Rejected {reason = "sessions_exhausted"}].  A
    connection that drops with sessions open has them aborted and
    their seats released.

    Failure isolation: protocol errors, client disconnects and job
    failures are all confined to their connection/job; nothing a
    client sends can stop the accept loop. *)

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  max_steps : int;  (** per-job step budget (the timeout) *)
  job_deadline_ms : int;
      (** per-job wall-clock deadline ({!Exec.config.deadline_ms});
          [0] disables it *)
  cache_capacity : int;
  job_shards : int;
      (** detector domains per job ({!Exec.config.job_shards}).  Above
          [1], the [workers] domain budget is {e split} between jobs
          and intra-job shards: the scheduler gets
          [max 1 (workers / job_shards)] seats, each driving
          [job_shards] shard domains. *)
  session_seats : int;
      (** long-lived streaming-session seats
          ({!Scheduler.config.session_seats}); [0] disables streaming *)
  tenant_quotas : (string * Scheduler.quota) list;
      (** per-tenant admission quotas ({!Scheduler.config.tenant_quotas});
          tenants not listed are unlimited but still scheduled fairly *)
}

val default_config : config
(** Socket [barracuda.sock] in the system temp directory, 2 workers,
    queue 64, 2M-step budget, 30 s job deadline, cache 128, 1 job
    shard (serial per-job detection), 2 session seats, no tenant
    quotas.  A connection that sends nothing for 30 s is dropped. *)

type t

val start : ?config:config -> unit -> t
(** Bind the socket, spawn the workers and the accept domain, and
    return immediately.  A socket file at the path that nothing accepts
    on is stale and taken over; a bare connect-and-close probes it.
    @raise Unix.Unix_error if the socket cannot be bound
    ([EADDRINUSE] when a live daemon holds the path). *)

val socket_path : t -> string

val request_stop : t -> unit
(** Initiate shutdown: stop accepting connections, and end every idle
    connection (its read side is shut down once the accept loop wakes,
    so a kept connection does not hold {!wait} for its read timeout).
    Returns immediately; pair with {!wait}.  Safe from a signal
    handler. *)

val wait : t -> unit
(** Block until shutdown is initiated (a [shutdown] request,
    {!request_stop}, or a signal handler calling it), then drain the
    job queue, join the workers and remove the socket file.  Only the
    first call does this; a later [wait] or {!stop} returns at once,
    since by then the listener's descriptor and the socket path may
    belong to a newer daemon. *)

val stop : t -> unit
(** [request_stop] + [wait]. *)

val status : t -> Protocol.status

val set_campaign_hook :
  t -> (unit -> Protocol.campaign_status option) -> unit
(** Install the provider of the [campaign] field in status replies.
    The server cannot depend on the campaign layer (which depends on
    this one), so when a background campaign daemon runs inside the
    daemon process, the composition root wires its status in here.
    Defaults to [fun () -> None]. *)

val load : t -> int
(** Paying work the daemon is carrying right now: queued + executing
    jobs.  The background campaign daemon polls this to yield whenever
    real traffic arrives. *)
