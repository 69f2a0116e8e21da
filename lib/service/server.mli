(** The race-checking daemon.

    Listens on a Unix domain socket, speaks the newline-delimited JSON
    {!Protocol}, and dispatches submissions to a {!Scheduler} worker
    pool backed by the shared artifact {!Cache}.

    Concurrency shape: one accept domain; each accepted connection is
    read on a lightweight thread of that domain (so a slow or silent
    client never blocks other clients).  A connection carries any
    number of requests, each answered in order.  Its thread writes
    every reply but a job's: the worker that settles a job encodes and
    writes that reply itself, and the thread, which queued the job and
    went back to reading, sleeps only in its read between requests.
    Three rules keep this safe:
    - {b order}: before the thread writes another frame, submits
      another job or closes the connection, it waits until the reply
      in flight is written;
    - {b descriptor}: only the thread closes the descriptor, and only
      once no reply is in flight, so a worker never writes to a
      descriptor number that may have been reused;
    - {b write bound}: a write waits at most {!write_bound_s} for the
      client to make room.  A write that fails or times out shuts the
      connection down, and the thread, reading end of file, closes it.
      One reply fits the socket buffer unless the client left earlier
      replies unread, so a client cannot hold a worker longer.

    A connection that sends nothing for 30 s is dropped; while one of
    its jobs runs, the 30 s count from that job's reply.  A reply still
    in flight at a stop or a hang-up is written (or fails on the dead
    socket) before the descriptor closes.

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

val write_bound_s : float
(** How long one write to a client may wait for room ([SO_SNDTIMEO] on
    every connection): 1 s. *)

val live_connections : t -> int
(** Client connections open right now; [0] once {!wait} has
    returned. *)

(** The write side of one connection, which keeps the rules above;
    exposed so they can be tested on a socketpair. *)
module Conn : sig
  type t

  val create : Unix.file_descr -> t
  (** Sets [SO_SNDTIMEO] to {!write_bound_s} on the descriptor. *)

  val send : t -> (unit -> string) -> bool
  (** Encode a frame with the function and write it.  [false] when the
      encoding or the write raised, whatever the exception: the
      connection is then shut down both ways, so its reader sees end
      of file. *)

  val owe : t -> unit
  (** A job was queued: its reply is owed. *)

  val owed : t -> bool

  val reply : t -> (unit -> string) -> unit
  (** Write the owed reply as {!send} does, on any thread, then clear
      the mark.  Never raises, so the mark is always cleared. *)

  val settled : t -> bool
  (** Wait until no reply is owed; [false] when a write has failed. *)
end

val request_stop : t -> unit
(** Initiate shutdown: stop accepting connections, and end every idle
    connection (its read side is shut down once the accept loop wakes,
    so a kept connection does not hold {!wait} for its read timeout).
    Returns immediately; pair with {!wait}.  Safe from a signal
    handler.  The accept loop is woken through a pipe of its own, so a
    stop does not depend on the socket path: it returns with the file
    removed, or the path taken by another daemon. *)

val wait : t -> unit
(** Block until shutdown is initiated (a [shutdown] request,
    {!request_stop}, or a signal handler calling it), then remove the
    socket file, close the listener, drain the job queue and join the
    workers.  The file goes first: until the listener closes, a daemon
    starting on the path finds it live and takes nothing over, so it
    never loses a file of its own to this daemon's teardown.  A file at
    the path that is not the one this daemon bound stays.  Only the
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
