(** Client side of the service protocol.

    Requests ride kept connections: the client keeps the idle
    connections of each socket path (shared by every thread of the
    process), and each call takes one, or connects when none is idle,
    performs one exchange and puts the connection back, unless the
    reply is one the daemon closes the connection after ([Error],
    [Stopping]).  A kept connection that fails before its reply (end of
    file, [EPIPE], [ECONNRESET]: a daemon that restarted, stopped or
    timed the connection out) is closed and the request retried once on
    a new connection; a failure on a new connection is the caller's.
    A retried submission can therefore run twice on a daemon that died
    mid-job, which is harmless: a job only reads its submission.

    Results come back as [(response, string) result] — the [Error]
    side is transport trouble (no daemon, connection refused,
    malformed reply), while job-level failure lives inside the
    {!Protocol.response}. *)

val submit :
  ?retries:int ->
  ?retry_budget_s:float ->
  socket:string ->
  Protocol.submit ->
  (Protocol.response, string) result
(** Submit a job and wait for its result.  A [Rejected] response (the
    daemon's backpressure) is retried up to [retries] times (default
    0: the caller sees the rejection), sleeping a jittered exponential
    backoff between attempts: the response's [retry_after_ms] doubled
    per attempt, capped at 2 s, scaled by a uniform factor in
    [0.5, 1.0) so rejected clients desynchronize.  [retry_budget_s]
    (default 30 s) bounds the {e total} time spent retrying regardless
    of [retries]; once it is spent the caller sees the last
    rejection. *)

val status : socket:string -> (Protocol.status, string) result
val metrics : socket:string -> (string, string) result

val ping : socket:string -> bool
(** [true] iff a daemon answers on the socket. *)

val shutdown : socket:string -> (unit, string) result

val wait_ready : ?timeout_s:float -> socket:string -> unit -> bool
(** Poll {!ping} until the daemon answers or [timeout_s] (default 5 s)
    elapses — for supervisors and tests that just started a server. *)

(** {1 Streaming sessions}

    A streaming session holds a connection of its own, never a kept
    one, for its whole lifetime: {!stream_open} connects
    and claims a daemon session seat, {!stream_append} ships chunks of
    recorded wire bytes, {!stream_flush} forces a checkpoint and
    returns the verdict so far, and {!stream_close} returns the final
    verdict and releases the seat.  Any failed exchange poisons the
    session (the daemon aborts it server-side and closes the
    connection), so after an [Error] the session is dead and a new
    {!stream_open} is required. *)

type session
(** A live streaming session: an open connection plus the daemon-side
    session id. *)

val stream_open :
  ?retries:int ->
  ?retry_budget_s:float ->
  socket:string ->
  Protocol.submit ->
  (session, string) result
(** Connect and open a streaming session for [submit] (which must have
    [kind = Check]).  A daemon whose session seats are all occupied
    answers [Rejected]; like {!submit}, the rejection is retried up to
    [retries] times (default 0) honoring the daemon's [retry_after_ms]
    hint with the same jittered exponential backoff and the same
    [retry_budget_s] total bound (default 30 s).  Once the budget or
    the attempts run out the caller sees an [Error] mentioning the
    retry hint. *)

val session_sid : session -> int

val stream_append : session -> string -> (int, string) result
(** Ship a chunk of recorded stream bytes (any byte boundary; cells
    are reassembled daemon-side).  [Ok n] is the cumulative count of
    cells the session has received, anomalous ones included. *)

val stream_flush : session -> (Protocol.stream_verdict, string) result
(** Checkpoint: block until every record shipped so far is fully
    detected, and return the verdict over that prefix. *)

val stream_close : session -> (Protocol.stream_verdict, string) result
(** Final checkpoint + verdict; tears the session down whatever the
    outcome. *)

val stream_abort : session -> unit
(** Drop the connection without a final verdict (the daemon aborts the
    session when it notices).  Idempotent; safe after any error. *)
