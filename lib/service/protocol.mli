(** Wire protocol of the race-checking service.

    Newline-delimited JSON over a Unix domain socket: each request and
    each response is one JSON object on one line.  A connection carries
    any number of requests, submissions included, and each is answered
    in order: a [submit] is answered when its job completes (or at once
    when it is rejected), and the connection stays open for the next
    request.

    {v
    -> {"cmd":"submit","kind":"check","payload":".visible .entry k..."}
    <- {"ok":true,"job":3,"verdict":"race_free","races":0,"cache":"hit",...}

    -> {"cmd":"submit","kind":"check","payload":"not ptx"}
    <- {"ok":false,"job":4,"error":"parse_error","message":"line 1: ..."}

    -> {"cmd":"submit",...}            (queue at capacity)
    <- {"ok":false,"error":"queue_full","retry_after_ms":50}
    v}

    Everything a daemon can send is a {!response}; malformed requests
    produce [Error] (and close the connection) rather than killing the
    server.

    Every frame is declared once, as a {!Telemetry.Json.Codec} object,
    and that declaration drives both the encoder and the decoder.
    Requests are tagged by [cmd]; replies are untagged, told apart by
    [ok] and the first key field present, from one ordered table
    ([pong], [stopping], [metrics], [stream], [accepted], [opened],
    [workers], [job] when [ok] is true; [retry_after_ms], [job],
    [message] when it is false).  A decoded field of the wrong JSON
    type fails the frame with [field "x" must be …]; an absent
    optional field takes its default, and an unknown one is ignored:
    a submission from an older client that still carries ["prune"]
    decodes as it would without it. *)

type kind =
  | Check  (** race-check a PTX kernel exactly as [barracuda check] does *)
  | Predict  (** predictive analysis over a serialized trace *)
  | Repair
      (** diagnose a racy PTX kernel and search for a minimal validated
          fix; the verdict describes the post-repair state *)

type submit = {
  kind : kind;
  payload : string;
      (** PTX source ([Check]) or a serialized trace ([Predict]) *)
  layout : (int * int * int) option;
      (** (blocks, threads/block, warp size); [None] = server default.
          Ignored for [Predict] — the trace header carries its layout. *)
  args : string list;
      (** kernel argument specs in the CLI syntax ([alloc:BYTES],
          [int:V], bare integer); missing ones default to [alloc:4096] *)
  static : bool;
      (** may answer a kernel the static race analysis proves racy
          without executing it *)
  tenant : string option;
      (** tenant the job is accounted (and rate-limited) under; [None]
          joins the daemon's default tenant.  Tenants with a configured
          quota ({!Scheduler.quota}) are token-bucket admitted and
          seat-capped; all tenants share the queue via deficit
          round-robin so none can starve another. *)
}

val kind_of_string : string -> kind option
(** ["check"], ["predict"] or ["repair"], as the wire spells them. *)

val submit_defaults : kind:kind -> string -> submit
(** A submission of [payload] with default layout and args, static
    answers allowed. *)

type request =
  | Submit of submit
  | Stream_open of submit
      (** open a streaming session against [payload]'s kernel; answered
          with [Stream_opened] carrying the session id.  The session
          lives as long as the connection (other requests may share
          it); [kind] must be [Check]. *)
  | Stream_append of { sid : int; chunk : string }
      (** ship a chunk of recorded wire-stream bytes
          ([Gpu_runtime.Stream] cells, split at any byte boundary);
          [chunk] is raw bytes here and hex-encoded on the wire.
          Answered with [Stream_ack]. *)
  | Stream_flush of { sid : int }
      (** checkpoint: quiesce detection and return the verdict-so-far
          as a non-final [Stream_verdict] *)
  | Stream_close of { sid : int }
      (** finish the session; answered with a final [Stream_verdict]
          and the session seat is released *)
  | Status
  | Metrics  (** Prometheus text exposition of the daemon's registry *)
  | Ping
  | Shutdown

type verdict = Racy | Race_free

type stream_verdict = {
  sid : int;
  final : bool;  (** [true] from [Stream_close] *)
  records : int;
      (** cells accepted so far: received, less the corrupt and stale *)
  races : int;
  verdict : verdict;
  degraded : bool;  (** transport integrity trouble was seen *)
  integrity : Barracuda.Report.integrity;
      (** the session's transport anomalies, merged across shards *)
}
(** A streaming session's verdict so far (flush) or final verdict
    (close). *)

type outcome = {
  verdict : verdict;
  races : int;  (** distinct races (observed, for [Predict]) *)
  errors : string list;  (** pretty-printed reports, capped *)
  cache_hit : bool;  (** artifact cache hit ([Check] and [Repair]) *)
  predicted : int;  (** schedule-sensitive predictions ([Predict] only) *)
  confirmed : int;  (** predictions confirmed by witness replay *)
  degraded : bool;
      (** transport anomalies (corruption/loss/duplication) were
          absorbed during detection; the verdict carries a soundness
          caveat *)
  static : bool;
      (** the verdict came from the static race analysis alone — the
          kernel was never executed (always [Racy]: race-free kernels
          still run to catch what the analysis cannot see) *)
  repaired : bool;
      (** [Repair] only: a validated fix was accepted.  [Race_free] +
          [repaired] = fixed; [Race_free] alone = already clean;
          [Racy] = unfixable within the candidate budget *)
  fix : string;  (** description of the accepted fix, [""] otherwise *)
  repair_tried : int;
      (** [Repair] only: candidate fixes that entered validation *)
  detect_ms : float;
      (** wall-clock spent inside the race detector for this job (the
          busiest shard domain when sharded); 0 for [Predict] *)
}

val default_outcome : outcome
(** [Race_free] with nothing found, flagged or tried: the base every
    outcome is built from. *)

type tenant_status = {
  t_name : string;
  t_queued : int;  (** jobs waiting in this tenant's sub-queue *)
  t_inflight : int;  (** jobs currently executing on workers *)
  t_submitted : int;
  t_completed : int;  (** jobs settled with a terminal reply *)
  t_rejected : int;  (** quota and queue-full rejections *)
  t_p50_ms : float;  (** end-to-end (queue + run) latency percentiles, *)
  t_p99_ms : float;  (** estimated from the tenant latency histogram *)
}

type campaign_status = {
  ca_trials : int;  (** trials completed (the journal cursor) *)
  ca_total : int;  (** trials in the whole campaign space *)
  ca_batches : int;  (** checkpointed batches so far *)
  ca_silent_wrong : int;  (** must stay 0 *)
  ca_paused : bool;
      (** the daemon deferred its last batch to paying work *)
}

type jobs = {
  submitted : int;
  completed : int;
  failed : int;  (** includes quarantined jobs *)
  rejected : int;  (** queue-full, shutdown and quota rejects alike *)
  racy : int;
  race_free : int;
  quarantined : int;  (** jobs failed after exhausting crash-restarts *)
  workers_restarted : int;
      (** worker crashes recovered, one per crash; on the wire it sits
          beside the [jobs] object rather than inside it *)
}
(** Job counts since start: the record {!Scheduler.counts} returns. *)

type sessions = {
  seats : int;  (** long-lived streaming-session seats *)
  occupied : int;  (** seats currently occupied (["open"] on the wire) *)
  opened : int;  (** sessions opened since start *)
}

type status = {
  uptime_ms : float;
  workers : int;
  busy : int;  (** workers currently executing a job *)
  queue_depth : int;
  queue_capacity : int;
  jobs : jobs;
  cache : Cache.stats;
  sessions : sessions;
  transport : Barracuda.Report.integrity;
      (** transport anomalies of this daemon's streaming sessions, as
          of each session's latest verdict (flush or close), merged
          across shards as the verdict is: wire records dropped for
          failed checksum validation, lost in sequence gaps, or dropped
          as stale/desynchronized.  Batch jobs seal their records
          locally and add nothing, and faults injected elsewhere in the
          process (the background campaign) are not counted.  The
          Prometheus [barracuda_transport_integrity_*] counters differ:
          they are process-wide and count per detector, so a sharded
          stream's anomaly counts once per shard there. *)
  tenants : tenant_status list;
      (** one entry per tenant the scheduler has seen, sorted by name;
          empty from daemons predating fleet mode *)
  campaign : campaign_status option;
      (** the background fault campaign, when one is running inside the
          daemon *)
}
(** A [status] reply.  It nests the way its JSON does: [jobs], [cache],
    [sessions] and [transport] are sub-objects on the wire too. *)

type job_result = {
  job : int;
  outcome : outcome;
  queue_ms : float;  (** time spent waiting in the job queue *)
  run_ms : float;  (** execution time on the worker *)
}

type response =
  | Result of job_result
  | Rejected of { reason : string; retry_after_ms : int }
      (** backpressure: the job queue is full (or the daemon is
          stopping); retry after the hinted delay *)
  | Failed of { job : int; code : string; message : string }
      (** the job itself failed — [parse_error], [bad_request],
          [timeout] or [exec_error] — without affecting the daemon *)
  | Stream_opened of { sid : int }
  | Stream_ack of { sid : int; records : int }
      (** append accepted; [records] is the session's cumulative count
          of cells received, anomalous ones included (the verdict's
          [records] counts those accepted) *)
  | Stream_verdict of stream_verdict
  | Status_reply of status
  | Metrics_reply of string
  | Pong
  | Stopping
  | Error of string  (** protocol-level error (unparsable request) *)

val verdict_string : verdict -> string

val to_hex : string -> string
(** Lowercase hex of raw bytes (stream chunks on the wire). *)

(** {1 Encoding}  One line per message, newline not included. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write [line] and its newline, built in one buffer, handling short
    writes.  The first write latches [SIGPIPE] to ignored
    process-wide, so a peer-closed descriptor raises a catchable
    [Unix.Unix_error (EPIPE, _, _)] instead of killing the process.
    @raise Unix.Unix_error if the peer is gone. *)

type frame =
  | Frame of string
      (** one line of at most {!max_frame_bytes} bytes, newline
          stripped; an unterminated last line is a frame too *)
  | Eof  (** clean end of input *)
  | Oversized
      (** the line exceeded {!max_frame_bytes}; reading stopped before
          buffering more, leaving the rest of the line unconsumed *)

type reader
(** The read side of one connection: a buffer over its descriptor,
    refilled one [Unix.read] at a time and scanned a block at a time
    for the newline.  Bytes after a frame's newline stay buffered for
    the next frame, so requests pipelined in one write are read in
    order.  The buffer never holds more than [max_frame_bytes + 1]
    bytes.  A reader belongs to one thread at a time; closing the
    descriptor is its owner's business. *)

val reader : Unix.file_descr -> reader

val read_frame : reader -> frame
(** The next line.  A read timeout or reset surfaces as the
    descriptor's [Unix.Unix_error]; [EINTR] is retried.
    @raise Unix.Unix_error when the read fails. *)

val max_frame_bytes : int
(** Requests beyond this size are rejected while reading
    ([Oversized]); the daemon answers them with a protocol [Error]. *)
