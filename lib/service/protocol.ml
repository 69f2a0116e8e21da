module Json = Telemetry.Json

type kind = Check | Predict | Repair

type submit = {
  kind : kind;
  payload : string;
  layout : (int * int * int) option;
  args : string list;
  prune : bool;
  static : bool;
  tenant : string option;
}

let submit_defaults ~kind payload =
  {
    kind;
    payload;
    layout = None;
    args = [];
    prune = true;
    static = true;
    tenant = None;
  }

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

type status = {
  uptime_ms : float;
  workers : int;
  busy : int;
  queue_depth : int;
  queue_capacity : int;
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  racy : int;
  race_free : int;
  quarantined : int;
  workers_restarted : int;
  cache_entries : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  session_seats : int;
  open_sessions : int;
  sessions_opened : int;
  integrity_corrupt : int;
  integrity_gaps : int;
  integrity_stale : int;
  integrity_desync : int;
  tenants : tenant_status list;
  campaign : campaign_status option;
}

type response =
  | Result of { job : int; outcome : outcome; queue_ms : float; run_ms : float }
  | Rejected of { reason : string; retry_after_ms : int }
  | Failed of { job : int; code : string; message : string }
  | Stream_opened of { sid : int }
  | Stream_ack of { sid : int; records : int }
  | Stream_verdict of {
      sid : int;
      final : bool;
      records : int;
      races : int;
      verdict : verdict;
      degraded : bool;
      corrupt : int;
      gaps : int;
      stale : int;
      desync : int;
    }
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

let verdict_string = function Racy -> "racy" | Race_free -> "race_free"
let kind_string = function
  | Check -> "check"
  | Predict -> "predict"
  | Repair -> "repair"

let kind_of_string k =
  List.find_opt (fun kind -> kind_string kind = k) [ Check; Predict; Repair ]

(* ------------------------------ encoding ------------------------- *)

let submit_fields ~cmd s =
  let layout =
    match s.layout with
    | None -> []
    | Some (blocks, tpb, warp) ->
        [
          ( "layout",
            Json.Obj
              [
                ("blocks", Json.Int blocks);
                ("tpb", Json.Int tpb);
                ("warp", Json.Int warp);
              ] );
        ]
  in
  let args =
    match s.args with
    | [] -> []
    | l -> [ ("args", Json.List (List.map (fun a -> Json.Str a) l)) ]
  in
  let tenant =
    match s.tenant with
    | None -> []
    | Some name -> [ ("tenant", Json.Str name) ]
  in
  Json.Obj
    ([
       ("cmd", Json.Str cmd);
       ("kind", Json.Str (kind_string s.kind));
       ("payload", Json.Str s.payload);
     ]
    @ layout @ args @ tenant
    @ (if s.prune then [] else [ ("prune", Json.Bool false) ])
    @ if s.static then [] else [ ("static", Json.Bool false) ])

let encode_request r =
  let doc =
    match r with
    | Submit s -> submit_fields ~cmd:"submit" s
    | Stream_open s -> submit_fields ~cmd:"stream_open" s
    | Stream_append { sid; chunk } ->
        Json.Obj
          [
            ("cmd", Json.Str "stream_append");
            ("sid", Json.Int sid);
            ("hex", Json.Str (to_hex chunk));
          ]
    | Stream_flush { sid } ->
        Json.Obj [ ("cmd", Json.Str "stream_flush"); ("sid", Json.Int sid) ]
    | Stream_close { sid } ->
        Json.Obj [ ("cmd", Json.Str "stream_close"); ("sid", Json.Int sid) ]
    | Status -> Json.Obj [ ("cmd", Json.Str "status") ]
    | Metrics -> Json.Obj [ ("cmd", Json.Str "metrics") ]
    | Ping -> Json.Obj [ ("cmd", Json.Str "ping") ]
    | Shutdown -> Json.Obj [ ("cmd", Json.Str "shutdown") ]
  in
  Json.to_string ~minify:true doc

let field name doc = Json.member name doc

let int_field ?default name doc =
  match field name doc with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Result.Error (Printf.sprintf "field %S must be an integer" name)
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Result.Error (Printf.sprintf "missing field %S" name))

let str_field name doc =
  match field name doc with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Result.Error (Printf.sprintf "field %S must be a string" name)
  | None -> Result.Error (Printf.sprintf "missing field %S" name)

let float_field ?default name doc =
  match field name doc with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some _ -> Result.Error (Printf.sprintf "field %S must be a number" name)
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Result.Error (Printf.sprintf "missing field %S" name))

let ( let* ) = Result.bind

let decode_submit doc =
  let* kind =
    match field "kind" doc with
    | None -> Ok Check
    | Some (Json.Str k) -> (
        match kind_of_string k with
        | Some kind -> Ok kind
        | None -> Result.Error (Printf.sprintf "unknown kind %S" k))
    | Some _ -> Result.Error "field \"kind\" must be a string"
  in
  let* payload = str_field "payload" doc in
  let* layout =
    match field "layout" doc with
    | None -> Ok None
    | Some l ->
        let* blocks = int_field "blocks" l in
        let* tpb = int_field "tpb" l in
        let* warp = int_field ~default:32 "warp" l in
        Ok (Some (blocks, tpb, warp))
  in
  let* args =
    match field "args" doc with
    | None -> Ok []
    | Some (Json.List l) ->
        List.fold_right
          (fun a acc ->
            let* acc = acc in
            match a with
            | Json.Str s -> Ok (s :: acc)
            | _ -> Result.Error "field \"args\" must be a list of strings")
          l (Ok [])
    | Some _ -> Result.Error "field \"args\" must be a list"
  in
  let prune =
    match field "prune" doc with Some (Json.Bool b) -> b | _ -> true
  in
  let static =
    match field "static" doc with Some (Json.Bool b) -> b | _ -> true
  in
  let* tenant =
    match field "tenant" doc with
    | None -> Ok None
    | Some (Json.Str name) -> Ok (Some name)
    | Some _ -> Result.Error "field \"tenant\" must be a string"
  in
  Ok { kind; payload; layout; args; prune; static; tenant }

let decode_sid doc k =
  let* sid = int_field "sid" doc in
  k sid

let decode_request line =
  match Json.of_string line with
  | Result.Error e -> Result.Error e
  | Ok doc -> (
      match field "cmd" doc with
      | Some (Json.Str "submit") ->
          let* s = decode_submit doc in
          Ok (Submit s)
      | Some (Json.Str "stream_open") ->
          let* s = decode_submit doc in
          Ok (Stream_open s)
      | Some (Json.Str "stream_append") ->
          decode_sid doc (fun sid ->
              let* hex = str_field "hex" doc in
              let* chunk = of_hex hex in
              Ok (Stream_append { sid; chunk }))
      | Some (Json.Str "stream_flush") ->
          decode_sid doc (fun sid -> Ok (Stream_flush { sid }))
      | Some (Json.Str "stream_close") ->
          decode_sid doc (fun sid -> Ok (Stream_close { sid }))
      | Some (Json.Str "status") -> Ok Status
      | Some (Json.Str "metrics") -> Ok Metrics
      | Some (Json.Str "ping") -> Ok Ping
      | Some (Json.Str "shutdown") -> Ok Shutdown
      | Some (Json.Str c) -> Result.Error (Printf.sprintf "unknown cmd %S" c)
      | Some _ -> Result.Error "field \"cmd\" must be a string"
      | None -> Result.Error "missing field \"cmd\"")

let encode_response r =
  let doc =
    match r with
    | Result { job; outcome = o; queue_ms; run_ms } ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("job", Json.Int job);
            ("verdict", Json.Str (verdict_string o.verdict));
            ("races", Json.Int o.races);
            ("errors", Json.List (List.map (fun e -> Json.Str e) o.errors));
            ("cache", Json.Str (if o.cache_hit then "hit" else "miss"));
            ("predicted", Json.Int o.predicted);
            ("confirmed", Json.Int o.confirmed);
            ("degraded", Json.Bool o.degraded);
            ("static", Json.Bool o.static);
            ("repaired", Json.Bool o.repaired);
            ("fix", Json.Str o.fix);
            ("repair_tried", Json.Int o.repair_tried);
            ("detect_ms", Json.Float o.detect_ms);
            ("queue_ms", Json.Float queue_ms);
            ("run_ms", Json.Float run_ms);
          ]
    | Rejected { reason; retry_after_ms } ->
        Json.Obj
          [
            ("ok", Json.Bool false);
            ("error", Json.Str reason);
            ("retry_after_ms", Json.Int retry_after_ms);
          ]
    | Failed { job; code; message } ->
        Json.Obj
          [
            ("ok", Json.Bool false);
            ("job", Json.Int job);
            ("error", Json.Str code);
            ("message", Json.Str message);
          ]
    | Stream_opened { sid } ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("sid", Json.Int sid);
            ("opened", Json.Bool true);
          ]
    | Stream_ack { sid; records } ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("sid", Json.Int sid);
            ("accepted", Json.Int records);
          ]
    | Stream_verdict v ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("sid", Json.Int v.sid);
            ("stream", Json.Bool true);
            ("final", Json.Bool v.final);
            ("records", Json.Int v.records);
            ("races", Json.Int v.races);
            ("verdict", Json.Str (verdict_string v.verdict));
            ("degraded", Json.Bool v.degraded);
            ( "integrity",
              Json.Obj
                [
                  ("corrupt", Json.Int v.corrupt);
                  ("gaps", Json.Int v.gaps);
                  ("stale", Json.Int v.stale);
                  ("desync", Json.Int v.desync);
                ] );
          ]
    | Status_reply s ->
        let tenants =
          match s.tenants with
          | [] -> []
          | ts ->
              [
                ( "tenants",
                  Json.List
                    (List.map
                       (fun tn ->
                         Json.Obj
                           [
                             ("name", Json.Str tn.t_name);
                             ("queued", Json.Int tn.t_queued);
                             ("inflight", Json.Int tn.t_inflight);
                             ("submitted", Json.Int tn.t_submitted);
                             ("completed", Json.Int tn.t_completed);
                             ("rejected", Json.Int tn.t_rejected);
                             ("p50_ms", Json.Float tn.t_p50_ms);
                             ("p99_ms", Json.Float tn.t_p99_ms);
                           ])
                       ts) );
              ]
        in
        let campaign =
          match s.campaign with
          | None -> []
          | Some ca ->
              [
                ( "campaign",
                  Json.Obj
                    [
                      ("trials", Json.Int ca.ca_trials);
                      ("total", Json.Int ca.ca_total);
                      ("batches", Json.Int ca.ca_batches);
                      ("silent_wrong", Json.Int ca.ca_silent_wrong);
                      ("paused", Json.Bool ca.ca_paused);
                    ] );
              ]
        in
        Json.Obj
          ([
            ("ok", Json.Bool true);
            ("uptime_ms", Json.Float s.uptime_ms);
            ("workers", Json.Int s.workers);
            ("busy", Json.Int s.busy);
            ("queue_depth", Json.Int s.queue_depth);
            ("queue_capacity", Json.Int s.queue_capacity);
            ( "jobs",
              Json.Obj
                [
                  ("submitted", Json.Int s.submitted);
                  ("completed", Json.Int s.completed);
                  ("failed", Json.Int s.failed);
                  ("rejected", Json.Int s.rejected);
                  ("racy", Json.Int s.racy);
                  ("race_free", Json.Int s.race_free);
                  ("quarantined", Json.Int s.quarantined);
                ] );
            ("workers_restarted", Json.Int s.workers_restarted);
            ( "cache",
              Json.Obj
                [
                  ("entries", Json.Int s.cache_entries);
                  ("hits", Json.Int s.cache_hits);
                  ("misses", Json.Int s.cache_misses);
                  ("evictions", Json.Int s.cache_evictions);
                ] );
            ( "sessions",
              Json.Obj
                [
                  ("seats", Json.Int s.session_seats);
                  ("open", Json.Int s.open_sessions);
                  ("opened", Json.Int s.sessions_opened);
                ] );
            ( "transport",
              Json.Obj
                [
                  ("corrupt", Json.Int s.integrity_corrupt);
                  ("gaps", Json.Int s.integrity_gaps);
                  ("stale", Json.Int s.integrity_stale);
                  ("desync", Json.Int s.integrity_desync);
                ] );
          ]
          @ tenants @ campaign)
    | Metrics_reply text ->
        Json.Obj [ ("ok", Json.Bool true); ("metrics", Json.Str text) ]
    | Pong -> Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]
    | Stopping -> Json.Obj [ ("ok", Json.Bool true); ("stopping", Json.Bool true) ]
    | Error message ->
        Json.Obj
          [
            ("ok", Json.Bool false);
            ("error", Json.Str "protocol_error");
            ("message", Json.Str message);
          ]
  in
  Json.to_string ~minify:true doc

let decode_status doc =
  let* uptime_ms = float_field ~default:0.0 "uptime_ms" doc in
  let* workers = int_field "workers" doc in
  let* busy = int_field "busy" doc in
  let* queue_depth = int_field "queue_depth" doc in
  let* queue_capacity = int_field "queue_capacity" doc in
  let jobs = Option.value ~default:(Json.Obj []) (field "jobs" doc) in
  let cache = Option.value ~default:(Json.Obj []) (field "cache" doc) in
  let* submitted = int_field ~default:0 "submitted" jobs in
  let* completed = int_field ~default:0 "completed" jobs in
  let* failed = int_field ~default:0 "failed" jobs in
  let* rejected = int_field ~default:0 "rejected" jobs in
  let* racy = int_field ~default:0 "racy" jobs in
  let* race_free = int_field ~default:0 "race_free" jobs in
  let* quarantined = int_field ~default:0 "quarantined" jobs in
  let* workers_restarted = int_field ~default:0 "workers_restarted" doc in
  let* cache_entries = int_field ~default:0 "entries" cache in
  let* cache_hits = int_field ~default:0 "hits" cache in
  let* cache_misses = int_field ~default:0 "misses" cache in
  let* cache_evictions = int_field ~default:0 "evictions" cache in
  let sessions = Option.value ~default:(Json.Obj []) (field "sessions" doc) in
  let transport = Option.value ~default:(Json.Obj []) (field "transport" doc) in
  let* session_seats = int_field ~default:0 "seats" sessions in
  let* open_sessions = int_field ~default:0 "open" sessions in
  let* sessions_opened = int_field ~default:0 "opened" sessions in
  let* integrity_corrupt = int_field ~default:0 "corrupt" transport in
  let* integrity_gaps = int_field ~default:0 "gaps" transport in
  let* integrity_stale = int_field ~default:0 "stale" transport in
  let* integrity_desync = int_field ~default:0 "desync" transport in
  let* tenants =
    match field "tenants" doc with
    | None -> Ok []
    | Some (Json.List l) ->
        List.fold_right
          (fun tn acc ->
            let* acc = acc in
            let* t_name = str_field "name" tn in
            let* t_queued = int_field ~default:0 "queued" tn in
            let* t_inflight = int_field ~default:0 "inflight" tn in
            let* t_submitted = int_field ~default:0 "submitted" tn in
            let* t_completed = int_field ~default:0 "completed" tn in
            let* t_rejected = int_field ~default:0 "rejected" tn in
            let* t_p50_ms = float_field ~default:0.0 "p50_ms" tn in
            let* t_p99_ms = float_field ~default:0.0 "p99_ms" tn in
            Ok
              ({
                 t_name;
                 t_queued;
                 t_inflight;
                 t_submitted;
                 t_completed;
                 t_rejected;
                 t_p50_ms;
                 t_p99_ms;
               }
              :: acc))
          l (Ok [])
    | Some _ -> Result.Error "field \"tenants\" must be a list"
  in
  let* campaign =
    match field "campaign" doc with
    | None -> Ok None
    | Some ca ->
        let* ca_trials = int_field ~default:0 "trials" ca in
        let* ca_total = int_field ~default:0 "total" ca in
        let* ca_batches = int_field ~default:0 "batches" ca in
        let* ca_silent_wrong = int_field ~default:0 "silent_wrong" ca in
        let ca_paused =
          match field "paused" ca with Some (Json.Bool b) -> b | _ -> false
        in
        Ok (Some { ca_trials; ca_total; ca_batches; ca_silent_wrong; ca_paused })
  in
  Ok
    (Status_reply
       {
         uptime_ms;
         workers;
         busy;
         queue_depth;
         queue_capacity;
         submitted;
         completed;
         failed;
         rejected;
         racy;
         race_free;
         quarantined;
         workers_restarted;
         cache_entries;
         cache_hits;
         cache_misses;
         cache_evictions;
         session_seats;
         open_sessions;
         sessions_opened;
         integrity_corrupt;
         integrity_gaps;
         integrity_stale;
         integrity_desync;
         tenants;
         campaign;
       })

let decode_result doc =
  let* job = int_field "job" doc in
  let* verdict =
    match field "verdict" doc with
    | Some (Json.Str "racy") -> Ok Racy
    | Some (Json.Str "race_free") -> Ok Race_free
    | Some (Json.Str v) -> Result.Error (Printf.sprintf "unknown verdict %S" v)
    | _ -> Result.Error "missing field \"verdict\""
  in
  let* races = int_field ~default:0 "races" doc in
  let* predicted = int_field ~default:0 "predicted" doc in
  let* confirmed = int_field ~default:0 "confirmed" doc in
  let errors =
    match field "errors" doc with
    | Some (Json.List l) ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let cache_hit =
    match field "cache" doc with Some (Json.Str "hit") -> true | _ -> false
  in
  let degraded =
    match field "degraded" doc with Some (Json.Bool b) -> b | _ -> false
  in
  let static =
    match field "static" doc with Some (Json.Bool b) -> b | _ -> false
  in
  let repaired =
    match field "repaired" doc with Some (Json.Bool b) -> b | _ -> false
  in
  let fix =
    match field "fix" doc with Some (Json.Str s) -> s | _ -> ""
  in
  let* repair_tried = int_field ~default:0 "repair_tried" doc in
  let* detect_ms = float_field ~default:0.0 "detect_ms" doc in
  let* queue_ms = float_field ~default:0.0 "queue_ms" doc in
  let* run_ms = float_field ~default:0.0 "run_ms" doc in
  Ok
    (Result
       {
         job;
         outcome =
           {
             verdict;
             races;
             errors;
             cache_hit;
             predicted;
             confirmed;
             degraded;
             static;
             repaired;
             fix;
             repair_tried;
             detect_ms;
           };
         queue_ms;
         run_ms;
       })

let decode_stream_reply ~sid doc =
  match field "stream" doc with
  | Some (Json.Bool true) ->
      let final =
        match field "final" doc with Some (Json.Bool b) -> b | _ -> false
      in
      let* records = int_field ~default:0 "records" doc in
      let* races = int_field ~default:0 "races" doc in
      let* verdict =
        match field "verdict" doc with
        | Some (Json.Str "racy") -> Ok Racy
        | Some (Json.Str "race_free") -> Ok Race_free
        | _ -> Result.Error "missing field \"verdict\""
      in
      let degraded =
        match field "degraded" doc with Some (Json.Bool b) -> b | _ -> false
      in
      let integ = Option.value ~default:(Json.Obj []) (field "integrity" doc) in
      let* corrupt = int_field ~default:0 "corrupt" integ in
      let* gaps = int_field ~default:0 "gaps" integ in
      let* stale = int_field ~default:0 "stale" integ in
      let* desync = int_field ~default:0 "desync" integ in
      Ok
        (Stream_verdict
           {
             sid;
             final;
             records;
             races;
             verdict;
             degraded;
             corrupt;
             gaps;
             stale;
             desync;
           })
  | _ -> (
      match field "accepted" doc with
      | Some (Json.Int records) -> Ok (Stream_ack { sid; records })
      | _ -> (
          match field "opened" doc with
          | Some (Json.Bool true) -> Ok (Stream_opened { sid })
          | _ -> Result.Error "unrecognized stream reply"))

let decode_response line =
  match Json.of_string line with
  | Result.Error e -> Result.Error e
  | Ok doc -> (
      let ok = match field "ok" doc with Some (Json.Bool b) -> b | _ -> false in
      if ok then
        match field "pong" doc with
        | Some (Json.Bool true) -> Ok Pong
        | _ -> (
            match field "stopping" doc with
            | Some (Json.Bool true) -> Ok Stopping
            | _ -> (
                match field "metrics" doc with
                | Some (Json.Str text) -> Ok (Metrics_reply text)
                | _ -> (
                    match field "sid" doc with
                    | Some (Json.Int sid) -> decode_stream_reply ~sid doc
                    | _ ->
                        if field "workers" doc <> None then decode_status doc
                        else decode_result doc)))
      else
        match field "error" doc with
        | Some (Json.Str "protocol_error") ->
            let* message = str_field "message" doc in
            Ok (Error message)
        | Some (Json.Str reason) -> (
            match field "retry_after_ms" doc with
            | Some (Json.Int retry_after_ms) ->
                Ok (Rejected { reason; retry_after_ms })
            | _ ->
                let* job = int_field "job" doc in
                let* message = str_field "message" doc in
                Ok (Failed { job; code = reason; message }))
        | _ -> Result.Error "missing field \"error\"")

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
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd payload !sent (len - !sent)
  done

type frame = Frame of string | Eof | Oversized

let read_frame ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Frame (Buffer.contents buf)
    | c ->
        if Buffer.length buf >= max_frame_bytes then Oversized
        else begin
          Buffer.add_char buf c;
          go ()
        end
    | exception End_of_file ->
        if Buffer.length buf = 0 then Eof else Frame (Buffer.contents buf)
  in
  go ()
