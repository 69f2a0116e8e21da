module Json = Telemetry.Json
module C = Json.Codec
module Report = Barracuda.Report

type kind = Check | Predict | Repair

type submit = {
  kind : kind;
  payload : string;
  layout : (int * int * int) option;
  args : string list;
  static : bool;
  tenant : string option;
}

let submit_defaults ~kind payload =
  { kind; payload; layout = None; args = []; static = true; tenant = None }

type request =
  | Submit of submit
  | Stream_open of submit
  | Stream_append of { sid : int; chunk : string }
  | Stream_flush of { sid : int }
  | Stream_close of { sid : int }
  | Status
  | Metrics
  | Ping
  | Shutdown

type verdict = Racy | Race_free

(* Declared before [outcome], so the labels the two share ([races],
   [verdict], [degraded]) default to the outcome's. *)
type stream_verdict = {
  sid : int;
  final : bool;
  records : int;
  races : int;
  verdict : verdict;
  degraded : bool;
  integrity : Report.integrity;
}

type outcome = {
  verdict : verdict;
  races : int;
  errors : string list;
  cache_hit : bool;
  predicted : int;
  confirmed : int;
  degraded : bool;
      (* transport anomalies were absorbed; the verdict is a caveat *)
  static : bool;
      (* the verdict came from the static analysis alone: the kernel
         was never executed *)
  repaired : bool;
      (* a repair job accepted a validated fix; [fix] describes it *)
  fix : string;
      (* human-readable description of the accepted fix, "" otherwise *)
  repair_tried : int;
      (* candidate fixes that entered validation for a repair job *)
  detect_ms : float;
      (* wall-clock spent inside the race detector for this job: the
         drain loop for serial checks, the busiest shard domain for
         sharded ones; 0 for cache-trivial or predict jobs *)
}

let default_outcome =
  {
    verdict = Race_free;
    races = 0;
    errors = [];
    cache_hit = false;
    predicted = 0;
    confirmed = 0;
    degraded = false;
    static = false;
    repaired = false;
    fix = "";
    repair_tried = 0;
    detect_ms = 0.0;
  }

type tenant_status = {
  t_name : string;
  t_queued : int;
  t_inflight : int;
  t_submitted : int;
  t_completed : int;
  t_rejected : int;
  t_p50_ms : float;
  t_p99_ms : float;
}

type campaign_status = {
  ca_trials : int;
  ca_total : int;
  ca_batches : int;
  ca_silent_wrong : int;
  ca_paused : bool;
}

type jobs = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  racy : int;
  race_free : int;
  quarantined : int;
  workers_restarted : int;
}

type sessions = { seats : int; occupied : int; opened : int }

type status = {
  uptime_ms : float;
  workers : int;
  busy : int;
  queue_depth : int;
  queue_capacity : int;
  jobs : jobs;
  cache : Cache.stats;
  sessions : sessions;
  transport : Report.integrity;
  tenants : tenant_status list;
  campaign : campaign_status option;
}

type job_result = {
  job : int;
  outcome : outcome;
  queue_ms : float;
  run_ms : float;
}

type response =
  | Result of job_result
  | Rejected of { reason : string; retry_after_ms : int }
  | Failed of { job : int; code : string; message : string }
  | Stream_opened of { sid : int }
  | Stream_ack of { sid : int; records : int }
  | Stream_verdict of stream_verdict
  | Status_reply of status
  | Metrics_reply of string
  | Pong
  | Stopping
  | Error of string

(* ------------------------------ hex ------------------------------- *)

(* Stream chunks are raw bytes; JSON frames carry them hex-encoded.
   2x expansion keeps even max-size cells (~600 B) far under the frame
   cap, and the codec has no dependency beyond the stdlib. *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Result.Error "odd-length hex chunk"
  else begin
    let nib c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> -1
    in
    let b = Bytes.create (n / 2) in
    let bad = ref false in
    for i = 0 to (n / 2) - 1 do
      let hi = nib s.[2 * i] and lo = nib s.[(2 * i) + 1] in
      if hi < 0 || lo < 0 then bad := true
      else Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo))
    done;
    if !bad then Result.Error "invalid hex chunk"
    else Ok (Bytes.unsafe_to_string b)
  end

(* ------------------------------ frames ---------------------------- *)

(* Every frame is declared once, below; the declarations drive both
   the encoder and the decoder. *)

let kinds = [ ("check", Check); ("predict", Predict); ("repair", Repair) ]
let kind_of_string k = List.assoc_opt k kinds
let verdicts = [ ("racy", Racy); ("race_free", Race_free) ]
let verdict_string v = fst (List.find (fun (_, v') -> v' = v) verdicts)
let verdict = C.enum verdicts

(* A count, 0 when absent; a sub-object, all defaults when absent. *)
let count name get = C.field ~default:0 name C.int get

let sub name c get =
  C.field ~default:(Result.get_ok (C.decode c (Json.Obj []))) name c get

let layout =
  C.(
    seal
      (obj (fun blocks tpb warp -> (blocks, tpb, warp))
      |+ field "blocks" int (fun (b, _, _) -> b)
      |+ field "tpb" int (fun (_, t, _) -> t)
      |+ field ~default:32 "warp" int (fun (_, _, w) -> w)))

let submit =
  C.(
    seal
      (obj (fun kind payload layout args tenant static ->
           { kind; payload; layout; args; static; tenant })
      |+ field ~default:Check "kind" (enum kinds) (fun s -> s.kind)
      |+ field "payload" str (fun s -> s.payload)
      |+ opt "layout" layout (fun s -> s.layout)
      |+ field ~default:[] ~omit:(( = ) []) "args" (list str) (fun s -> s.args)
      |+ opt "tenant" str (fun s -> s.tenant)
      |+ field ~default:true ~omit:Fun.id "static" bool (fun (s : submit) ->
             s.static)))

let sid = C.(seal (obj Fun.id |+ field "sid" int Fun.id))

let append =
  C.(
    seal
      (obj (fun sid chunk -> (sid, chunk))
      |+ field "sid" int fst
      |+ field "hex" (conv to_hex of_hex str) snd))

(* A frame whose [key] field, when given, is a [true] marker. *)
let constant ?key v =
  let fields =
    match key with
    | None -> C.(seal (obj ()))
    | Some key -> C.(seal (obj Fun.id |+ field key marker Fun.id))
  in
  C.case fields (fun () -> v) (fun r -> if r = v then Some () else None)

let request =
  C.tagged "cmd"
    [
      ( "submit",
        C.case submit
          (fun s -> Submit s)
          (function Submit s -> Some s | _ -> None) );
      ( "stream_open",
        C.case submit
          (fun s -> Stream_open s)
          (function Stream_open s -> Some s | _ -> None) );
      ( "stream_append",
        C.case append
          (fun (sid, chunk) -> Stream_append { sid; chunk })
          (function
            | Stream_append { sid; chunk } -> Some (sid, chunk) | _ -> None) );
      ( "stream_flush",
        C.case sid
          (fun sid -> Stream_flush { sid })
          (function Stream_flush { sid } -> Some sid | _ -> None) );
      ( "stream_close",
        C.case sid
          (fun sid -> Stream_close { sid })
          (function Stream_close { sid } -> Some sid | _ -> None) );
      ("status", constant Status);
      ("metrics", constant Metrics);
      ("ping", constant Ping);
      ("shutdown", constant Shutdown);
    ]

let job_result =
  let o f r = f r.outcome in
  C.(
    seal
      (obj
         (fun job verdict races errors cache_hit predicted confirmed degraded
              static repaired fix repair_tried detect_ms queue_ms run_ms ->
           let outcome =
             { verdict; races; errors; cache_hit; predicted; confirmed;
               degraded; static; repaired; fix; repair_tried; detect_ms }
           in
           { job; outcome; queue_ms; run_ms })
      |+ field "job" int (fun r -> r.job)
      |+ field "verdict" verdict (o (fun o -> o.verdict))
      |+ count "races" (o (fun o -> o.races))
      |+ field ~default:[] "errors" (list str) (o (fun o -> o.errors))
      |+ field ~default:false "cache"
           (enum [ ("hit", true); ("miss", false) ])
           (o (fun o -> o.cache_hit))
      |+ count "predicted" (o (fun o -> o.predicted))
      |+ count "confirmed" (o (fun o -> o.confirmed))
      |+ field ~default:false "degraded" bool (o (fun o -> o.degraded))
      |+ field ~default:false "static" bool (o (fun o -> o.static))
      |+ field ~default:false "repaired" bool (o (fun o -> o.repaired))
      |+ field ~default:"" "fix" str (o (fun o -> o.fix))
      |+ count "repair_tried" (o (fun o -> o.repair_tried))
      |+ field ~default:0.0 "detect_ms" float (o (fun o -> o.detect_ms))
      |+ field ~default:0.0 "queue_ms" float (fun r -> r.queue_ms)
      |+ field ~default:0.0 "run_ms" float (fun r -> r.run_ms)))

let integrity =
  C.(
    seal
      (obj (fun corrupt gaps stale desync ->
           { Report.corrupt; gaps; stale; desync })
      |+ count "corrupt" (fun i -> i.Report.corrupt)
      |+ count "gaps" (fun i -> i.Report.gaps)
      |+ count "stale" (fun i -> i.Report.stale)
      |+ count "desync" (fun i -> i.Report.desync)))

let stream_verdict =
  C.(
    seal
      (obj (fun sid () final records races verdict degraded integrity ->
           { sid; final; records; races; verdict; degraded; integrity })
      |+ field "sid" int (fun (v : stream_verdict) -> v.sid)
      |+ field "stream" marker (fun _ -> ())
      |+ field ~default:false "final" bool (fun v -> v.final)
      |+ count "records" (fun v -> v.records)
      |+ count "races" (fun (v : stream_verdict) -> v.races)
      |+ field "verdict" verdict (fun (v : stream_verdict) -> v.verdict)
      |+ field ~default:false "degraded" bool (fun (v : stream_verdict) ->
             v.degraded)
      |+ sub "integrity" integrity (fun v -> v.integrity)))

let jobs =
  C.(
    seal
      (obj
         (fun submitted completed failed rejected racy race_free quarantined ->
           { submitted; completed; failed; rejected; racy; race_free;
             quarantined; workers_restarted = 0 })
      |+ count "submitted" (fun j -> j.submitted)
      |+ count "completed" (fun j -> j.completed)
      |+ count "failed" (fun j -> j.failed)
      |+ count "rejected" (fun j -> j.rejected)
      |+ count "racy" (fun j -> j.racy)
      |+ count "race_free" (fun j -> j.race_free)
      |+ count "quarantined" (fun j -> j.quarantined)))

let cache =
  C.(
    seal
      (obj (fun entries hits misses evictions ->
           { Cache.entries; hits; misses; evictions })
      |+ count "entries" (fun c -> c.Cache.entries)
      |+ count "hits" (fun c -> c.Cache.hits)
      |+ count "misses" (fun c -> c.Cache.misses)
      |+ count "evictions" (fun c -> c.Cache.evictions)))

let sessions =
  C.(
    seal
      (obj (fun seats occupied opened -> { seats; occupied; opened })
      |+ count "seats" (fun s -> s.seats)
      |+ count "open" (fun s -> s.occupied)
      |+ count "opened" (fun s -> s.opened)))

let tenant =
  C.(
    seal
      (obj
         (fun t_name t_queued t_inflight t_submitted t_completed t_rejected
              t_p50_ms t_p99_ms ->
           { t_name; t_queued; t_inflight; t_submitted; t_completed;
             t_rejected; t_p50_ms; t_p99_ms })
      |+ field "name" str (fun t -> t.t_name)
      |+ count "queued" (fun t -> t.t_queued)
      |+ count "inflight" (fun t -> t.t_inflight)
      |+ count "submitted" (fun t -> t.t_submitted)
      |+ count "completed" (fun t -> t.t_completed)
      |+ count "rejected" (fun t -> t.t_rejected)
      |+ field ~default:0.0 "p50_ms" float (fun t -> t.t_p50_ms)
      |+ field ~default:0.0 "p99_ms" float (fun t -> t.t_p99_ms)))

let campaign =
  C.(
    seal
      (obj (fun ca_trials ca_total ca_batches ca_silent_wrong ca_paused ->
           { ca_trials; ca_total; ca_batches; ca_silent_wrong; ca_paused })
      |+ count "trials" (fun c -> c.ca_trials)
      |+ count "total" (fun c -> c.ca_total)
      |+ count "batches" (fun c -> c.ca_batches)
      |+ count "silent_wrong" (fun c -> c.ca_silent_wrong)
      |+ field ~default:false "paused" bool (fun c -> c.ca_paused)))

(* [workers_restarted] is counted with the jobs but travels beside the
   [jobs] object. *)
let status =
  C.(
    seal
      (obj
         (fun uptime_ms workers busy queue_depth queue_capacity jobs
              workers_restarted cache sessions transport tenants campaign ->
           { uptime_ms; workers; busy; queue_depth; queue_capacity;
             jobs = { jobs with workers_restarted };
             cache; sessions; transport; tenants; campaign })
      |+ field ~default:0.0 "uptime_ms" float (fun s -> s.uptime_ms)
      |+ field "workers" int (fun s -> s.workers)
      |+ field "busy" int (fun s -> s.busy)
      |+ field "queue_depth" int (fun s -> s.queue_depth)
      |+ field "queue_capacity" int (fun s -> s.queue_capacity)
      |+ sub "jobs" jobs (fun s -> s.jobs)
      |+ count "workers_restarted" (fun s -> s.jobs.workers_restarted)
      |+ sub "cache" cache (fun s -> s.cache)
      |+ sub "sessions" sessions (fun s -> s.sessions)
      |+ sub "transport" integrity (fun s -> s.transport)
      |+ field ~default:[] ~omit:(( = ) []) "tenants" (list tenant) (fun s ->
             s.tenants)
      |+ opt "campaign" campaign (fun s -> s.campaign)))

let ack =
  C.(
    seal
      (obj (fun sid records -> (sid, records))
      |+ field "sid" int fst
      |+ field "accepted" int snd))

let opened =
  C.(
    seal
      (obj (fun sid () -> sid)
      |+ field "sid" int Fun.id
      |+ field "opened" marker (fun _ -> ())))

let rejected =
  C.(
    seal
      (obj (fun reason retry -> (reason, retry))
      |+ field "error" str fst
      |+ field "retry_after_ms" int snd))

let failed =
  C.(
    seal
      (obj (fun job code message -> (job, code, message))
      |+ field "job" int (fun (j, _, _) -> j)
      |+ field "error" str (fun (_, c, _) -> c)
      |+ field "message" str (fun (_, _, m) -> m)))

let protocol_error =
  C.(
    seal
      (obj (fun () message -> message)
      |+ field "error" (enum [ ("protocol_error", ()) ]) (fun _ -> ())
      |+ field "message" str Fun.id))

(* Replies are untagged: [ok] and the first key field present (one its
   case always writes) pick the case, in this order. *)
let response =
  C.keyed "ok"
    [
      (true, "pong", constant ~key:"pong" Pong);
      (true, "stopping", constant ~key:"stopping" Stopping);
      ( true,
        "metrics",
        C.case
          C.(seal (obj Fun.id |+ field "metrics" str Fun.id))
          (fun text -> Metrics_reply text)
          (function Metrics_reply text -> Some text | _ -> None) );
      ( true,
        "stream",
        C.case stream_verdict
          (fun v -> Stream_verdict v)
          (function Stream_verdict v -> Some v | _ -> None) );
      ( true,
        "accepted",
        C.case ack
          (fun (sid, records) -> Stream_ack { sid; records })
          (function
            | Stream_ack { sid; records } -> Some (sid, records) | _ -> None) );
      ( true,
        "opened",
        C.case opened
          (fun sid -> Stream_opened { sid })
          (function Stream_opened { sid } -> Some sid | _ -> None) );
      ( true,
        "workers",
        C.case status
          (fun s -> Status_reply s)
          (function Status_reply s -> Some s | _ -> None) );
      ( true,
        "job",
        C.case job_result
          (fun r -> Result r)
          (function Result r -> Some r | _ -> None) );
      ( false,
        "retry_after_ms",
        C.case rejected
          (fun (reason, retry_after_ms) -> Rejected { reason; retry_after_ms })
          (function
            | Rejected { reason; retry_after_ms } ->
                Some (reason, retry_after_ms)
            | _ -> None) );
      ( false,
        "job",
        C.case failed
          (fun (job, code, message) -> Failed { job; code; message })
          (function
            | Failed { job; code; message } -> Some (job, code, message)
            | _ -> None) );
      ( false,
        "message",
        C.case protocol_error
          (fun message -> Error message)
          (function Error message -> Some message | _ -> None) );
    ]

let encode_request r = C.to_string request r
let decode_request line = C.of_string request line
let encode_response r = C.to_string response r
let decode_response line = C.of_string response line

(* ------------------------------ framing -------------------------- *)

let max_frame_bytes = 16 * 1024 * 1024

(* A peer can close its end while a frame for it is still in flight
   (e.g. a killed submit client whose job later completes).  Without
   this, the kernel delivers SIGPIPE — whose default disposition kills
   the whole process — before [Unix.write] can return [EPIPE], so no
   exception handler ever runs.  Latched once, forced on every write,
   covering the daemon and the one-shot client binaries alike. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let write_frame fd line =
  Lazy.force sigpipe_ignored;
  let len = String.length line + 1 in
  let payload = Bytes.create len in
  Bytes.blit_string line 0 payload 0 (len - 1);
  Bytes.set payload (len - 1) '\n';
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd payload !sent (len - !sent)
  done

type frame = Frame of string | Eof | Oversized

(* A connection's read side.  [buf] holds the bytes read from [fd] but
   not yet returned, [pos, len); none of [pos, scan) is a newline, so
   each byte is scanned once however many reads its line takes.  The
   buffer never exceeds [max_frame_bytes + 1] bytes: a line that fills
   it without a newline is oversized, and a newline found in it ends a
   line of at most [max_frame_bytes]. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scan : int;
}

(* One [Unix.read] moves at most this much, and most frames fit. *)
let initial_bytes = 65536

let reader fd =
  { fd; buf = Bytes.create initial_bytes; pos = 0; len = 0; scan = 0 }

let rec newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) stop

(* Make room after [len]: start over in an emptied buffer (back at its
   initial size after a large frame), move the pending bytes to the
   front of a full one, or double a full one that starts with them. *)
let make_room r =
  let cap = Bytes.length r.buf in
  if r.pos = r.len then begin
    if cap > initial_bytes then r.buf <- Bytes.create initial_bytes;
    r.pos <- 0;
    r.len <- 0;
    r.scan <- 0
  end
  else if r.len = cap then begin
    let pending = r.len - r.pos in
    let buf =
      if r.pos > 0 then r.buf
      else Bytes.create (min (2 * cap) (max_frame_bytes + 1))
    in
    Bytes.blit r.buf r.pos buf 0 pending;
    r.buf <- buf;
    r.scan <- r.scan - r.pos;
    r.pos <- 0;
    r.len <- pending
  end

let rec fill r =
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | n ->
      r.len <- r.len + n;
      n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r

(* The line [pos, stop), consumed with its newline when it has one. *)
let take r stop =
  let line = Bytes.sub_string r.buf r.pos (stop - r.pos) in
  r.pos <- min r.len (stop + 1);
  r.scan <- r.pos;
  Frame line

let rec read_frame r =
  let nl = newline r.buf r.scan r.len in
  if nl >= 0 then take r nl
  else if r.len - r.pos > max_frame_bytes then Oversized
  else begin
    r.scan <- r.len;
    make_room r;
    if fill r > 0 then read_frame r
    else if r.pos = r.len then Eof
    else take r r.len
  end
