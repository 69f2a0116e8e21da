(* The race-checking service: wire protocol, artifact cache, scheduler
   backpressure, daemon lifecycle (crash isolation, timeouts), and
   report parity between the daemon and one-shot checking. *)

module P = Service.Protocol
module Case = Bugsuite.Case

let tmp_socket name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "barracuda-test-%d-%s.sock" (Unix.getpid ()) name)

let with_server ?(workers = 2) ?(queue_capacity = 64) ?max_steps
    ?(job_shards = 1) name f =
  let socket_path = tmp_socket name in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let config =
    {
      Service.Server.default_config with
      socket_path;
      workers;
      queue_capacity;
      job_shards;
      max_steps =
        (match max_steps with
        | Some n -> n
        | None -> Service.Server.default_config.Service.Server.max_steps);
    }
  in
  let t = Service.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop t)
    (fun () ->
      Alcotest.(check bool)
        "daemon ready" true
        (Service.Client.wait_ready ~socket:socket_path ());
      f socket_path t)

(* ---- protocol ---------------------------------------------------- *)

let golden_status =
  {
    P.uptime_ms = 1234.5;
    workers = 4;
    busy = 1;
    queue_depth = 2;
    queue_capacity = 64;
    jobs =
      {
        P.submitted = 10;
        completed = 7;
        failed = 1;
        rejected = 2;
        racy = 3;
        race_free = 4;
        quarantined = 1;
        workers_restarted = 2;
      };
    cache = { Service.Cache.entries = 5; hits = 6; misses = 5; evictions = 0 };
    sessions = { P.seats = 2; occupied = 1; opened = 9 };
    transport =
      { Barracuda.Report.corrupt = 3; gaps = 2; stale = 1; desync = 4 };
    tenants =
      [
        {
          P.t_name = "acme";
          t_queued = 1;
          t_inflight = 2;
          t_submitted = 9;
          t_completed = 6;
          t_rejected = 1;
          t_p50_ms = 2.5;
          t_p99_ms = 50.0;
        };
        {
          P.t_name = "default";
          t_queued = 0;
          t_inflight = 0;
          t_submitted = 1;
          t_completed = 1;
          t_rejected = 0;
          t_p50_ms = 0.0;
          t_p99_ms = 0.0;
        };
      ];
    campaign =
      Some
        {
          P.ca_trials = 12;
          ca_total = 800;
          ca_batches = 2;
          ca_silent_wrong = 0;
          ca_paused = true;
        };
  }

(* Every constructor, with the line the wire format has always had for
   it: clients and daemons of any build interoperate. *)
let golden_requests =
  [
    ( P.Ping, "{\"cmd\":\"ping\"}" );
    ( P.Status, "{\"cmd\":\"status\"}" );
    ( P.Metrics, "{\"cmd\":\"metrics\"}" );
    ( P.Shutdown, "{\"cmd\":\"shutdown\"}" );
    ( P.Submit (P.submit_defaults ~kind:P.Check ".visible .entry k () { ret; }"),
      "{\"cmd\":\"submit\",\"kind\":\"check\",\"payload\":\".visible .entry k () { ret; }\"}" );
    ( P.Submit
      {
        P.kind = P.Predict;
        payload = "line one\nline \"two\"\ttab\\slash\x01";
        layout = Some (4, 128, 32);
        args = [ "alloc:256"; "int:7"; "42" ];
        static = false;
        tenant = Some "acme";
      },
      "{\"cmd\":\"submit\",\"kind\":\"predict\",\"payload\":\"line one\\nline \\\"two\\\"\\ttab\\\\slash\\u0001\",\"layout\":{\"blocks\":4,\"tpb\":128,\"warp\":32},\"args\":[\"alloc:256\",\"int:7\",\"42\"],\"tenant\":\"acme\",\"static\":false}" );
    ( P.Stream_open
      {
        (P.submit_defaults ~kind:P.Repair "k") with
        P.layout = Some (2, 64, 16);
        tenant = Some "t";
        static = false;
      },
      "{\"cmd\":\"stream_open\",\"kind\":\"repair\",\"payload\":\"k\",\"layout\":{\"blocks\":2,\"tpb\":64,\"warp\":16},\"tenant\":\"t\",\"static\":false}" );
    ( P.Stream_append { sid = 7; chunk = "\x00\xffbinary\ngoo\x01" },
      "{\"cmd\":\"stream_append\",\"sid\":7,\"hex\":\"00ff62696e6172790a676f6f01\"}" );
    ( P.Stream_flush { sid = 7 }, "{\"cmd\":\"stream_flush\",\"sid\":7}" );
    ( P.Stream_close { sid = 8 }, "{\"cmd\":\"stream_close\",\"sid\":8}" );
  ]

let golden_responses =
  [
    ( P.Pong, "{\"ok\":true,\"pong\":true}" );
    ( P.Stopping, "{\"ok\":true,\"stopping\":true}" );
    ( P.Error "unparsable request",
      "{\"ok\":false,\"error\":\"protocol_error\",\"message\":\"unparsable request\"}" );
    ( P.Rejected { reason = "queue_full"; retry_after_ms = 50 },
      "{\"ok\":false,\"error\":\"queue_full\",\"retry_after_ms\":50}" );
    ( P.Failed { job = 9; code = "parse_error"; message = "PTX line 3: no" },
      "{\"ok\":false,\"job\":9,\"error\":\"parse_error\",\"message\":\"PTX line 3: no\"}" );
    ( P.Result
      {
        P.job = 4;
        outcome =
          {
            P.verdict = P.Racy;
            races = 3;
            errors = [ "race on g[0]"; "race on g[1]" ];
            cache_hit = true;
            predicted = 2;
            confirmed = 1;
            degraded = true;
            static = true;
            repaired = false;
            fix = "";
            repair_tried = 0;
            detect_ms = 0.1;
          };
        queue_ms = 0.25;
        run_ms = 41.5;
      },
      "{\"ok\":true,\"job\":4,\"verdict\":\"racy\",\"races\":3,\"errors\":[\"race on g[0]\",\"race on g[1]\"],\"cache\":\"hit\",\"predicted\":2,\"confirmed\":1,\"degraded\":true,\"static\":true,\"repaired\":false,\"fix\":\"\",\"repair_tried\":0,\"detect_ms\":0.10000000000000001,\"queue_ms\":0.25,\"run_ms\":41.5}" );
    ( P.Result
      {
        P.job = 5;
        outcome =
          {
            P.default_outcome with
            P.repaired = true;
            fix = "insert bar.sync after insn 3";
            repair_tried = 2;
            detect_ms = 12.0;
          };
        queue_ms = 1e-3;
        run_ms = 2e15;
      },
      "{\"ok\":true,\"job\":5,\"verdict\":\"race_free\",\"races\":0,\"errors\":[],\"cache\":\"miss\",\"predicted\":0,\"confirmed\":0,\"degraded\":false,\"static\":false,\"repaired\":true,\"fix\":\"insert bar.sync after insn 3\",\"repair_tried\":2,\"detect_ms\":12.0,\"queue_ms\":0.001,\"run_ms\":2000000000000000}" );
    ( P.Status_reply golden_status,
      "{\"ok\":true,\"uptime_ms\":1234.5,\"workers\":4,\"busy\":1,\"queue_depth\":2,\"queue_capacity\":64,\"jobs\":{\"submitted\":10,\"completed\":7,\"failed\":1,\"rejected\":2,\"racy\":3,\"race_free\":4,\"quarantined\":1},\"workers_restarted\":2,\"cache\":{\"entries\":5,\"hits\":6,\"misses\":5,\"evictions\":0},\"sessions\":{\"seats\":2,\"open\":1,\"opened\":9},\"transport\":{\"corrupt\":3,\"gaps\":2,\"stale\":1,\"desync\":4},\"tenants\":[{\"name\":\"acme\",\"queued\":1,\"inflight\":2,\"submitted\":9,\"completed\":6,\"rejected\":1,\"p50_ms\":2.5,\"p99_ms\":50.0},{\"name\":\"default\",\"queued\":0,\"inflight\":0,\"submitted\":1,\"completed\":1,\"rejected\":0,\"p50_ms\":0.0,\"p99_ms\":0.0}],\"campaign\":{\"trials\":12,\"total\":800,\"batches\":2,\"silent_wrong\":0,\"paused\":true}}" );
    ( P.Status_reply
      { golden_status with P.tenants = []; campaign = None; uptime_ms = 0.0 },
      "{\"ok\":true,\"uptime_ms\":0.0,\"workers\":4,\"busy\":1,\"queue_depth\":2,\"queue_capacity\":64,\"jobs\":{\"submitted\":10,\"completed\":7,\"failed\":1,\"rejected\":2,\"racy\":3,\"race_free\":4,\"quarantined\":1},\"workers_restarted\":2,\"cache\":{\"entries\":5,\"hits\":6,\"misses\":5,\"evictions\":0},\"sessions\":{\"seats\":2,\"open\":1,\"opened\":9},\"transport\":{\"corrupt\":3,\"gaps\":2,\"stale\":1,\"desync\":4}}" );
    ( P.Stream_opened { sid = 7 }, "{\"ok\":true,\"sid\":7,\"opened\":true}" );
    ( P.Stream_ack { sid = 7; records = 1234 },
      "{\"ok\":true,\"sid\":7,\"accepted\":1234}" );
    ( P.Stream_verdict
      {
        P.sid = 7;
        final = false;
        records = 1234;
        races = 2;
        verdict = P.Racy;
        degraded = true;
        integrity =
          { Barracuda.Report.corrupt = 1; gaps = 2; stale = 0; desync = 0 };
      },
      "{\"ok\":true,\"sid\":7,\"stream\":true,\"final\":false,\"records\":1234,\"races\":2,\"verdict\":\"racy\",\"degraded\":true,\"integrity\":{\"corrupt\":1,\"gaps\":2,\"stale\":0,\"desync\":0}}" );
    ( P.Stream_verdict
      {
        P.sid = 8;
        final = true;
        records = 0;
        races = 0;
        verdict = P.Race_free;
        degraded = false;
        integrity =
          { Barracuda.Report.corrupt = 0; gaps = 0; stale = 0; desync = 3 };
      },
      "{\"ok\":true,\"sid\":8,\"stream\":true,\"final\":true,\"records\":0,\"races\":0,\"verdict\":\"race_free\",\"degraded\":false,\"integrity\":{\"corrupt\":0,\"gaps\":0,\"stale\":0,\"desync\":3}}" );
    ( P.Metrics_reply "# TYPE a counter\na 1\n",
      "{\"ok\":true,\"metrics\":\"# TYPE a counter\\na 1\\n\"}" );
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun (req, _) ->
      let line = P.encode_request req in
      Alcotest.(check bool) line true (P.decode_request line = Ok req))
    golden_requests;
  List.iter
    (fun (resp, _) ->
      let line = P.encode_response resp in
      Alcotest.(check bool) line true (P.decode_response line = Ok resp))
    golden_responses;
  (* Malformed input degrades to [Error], never an exception. *)
  (match P.decode_request "{\"cmd\":\"no_such\"}" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cmd should not decode");
  match P.decode_request "not json at all" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "junk should not decode"

let test_protocol_golden () =
  List.iter
    (fun (req, line) ->
      Alcotest.(check string) "request line" line (P.encode_request req))
    golden_requests;
  List.iter
    (fun (resp, line) ->
      Alcotest.(check string) "response line" line (P.encode_response resp))
    golden_responses

(* ---- generated frames -------------------------------------------- *)

module G = QCheck2.Gen

let gen_text = G.string_size ~gen:G.char (G.int_range 0 12)
let gen_texts = G.list_size (G.int_range 0 3) gen_text

(* finite floats: the wire has no spelling for nan or infinity *)
let gen_float =
  G.oneof
    [
      G.map (fun n -> float_of_int n /. 64.0) G.int;
      G.float_range (-1e300) 1e300;
    ]

let gen_submit =
  G.(
    map
      (fun ((kind, payload, layout), (args, static, tenant)) ->
        { P.kind; payload; layout; args; static; tenant })
      (pair
         (triple
            (oneofl [ P.Check; P.Predict; P.Repair ])
            gen_text
            (option (triple int int int)))
         (triple gen_texts bool (option gen_text))))

let gen_request =
  G.(
    oneof
      [
        map (fun s -> P.Submit s) gen_submit;
        map (fun s -> P.Stream_open s) gen_submit;
        map2 (fun sid chunk -> P.Stream_append { sid; chunk }) int gen_text;
        map (fun sid -> P.Stream_flush { sid }) int;
        map (fun sid -> P.Stream_close { sid }) int;
        oneofl [ P.Status; P.Metrics; P.Ping; P.Shutdown ];
      ])

let gen_verdict = G.oneofl [ P.Racy; P.Race_free ]

let gen_integrity =
  G.map
    (fun (corrupt, gaps, stale, desync) ->
      { Barracuda.Report.corrupt; gaps; stale; desync })
    G.(quad int int int int)

let gen_outcome =
  G.(
    map
      (fun ( (verdict, races, errors, cache_hit),
             (predicted, confirmed, degraded, static),
             (repaired, fix, repair_tried, detect_ms) ) ->
        { P.verdict; races; errors; cache_hit; predicted; confirmed;
          degraded; static; repaired; fix; repair_tried; detect_ms })
      (triple
         (quad gen_verdict int gen_texts bool)
         (quad int int bool bool)
         (quad bool gen_text int gen_float)))

let gen_jobs =
  G.(
    map
      (fun ((submitted, completed, failed, rejected),
            (racy, race_free, quarantined, workers_restarted)) ->
        { P.submitted; completed; failed; rejected; racy; race_free;
          quarantined; workers_restarted })
      (pair (quad int int int int) (quad int int int int)))

let gen_cache =
  G.map
    (fun (entries, hits, misses, evictions) ->
      { Service.Cache.entries; hits; misses; evictions })
    G.(quad int int int int)

let gen_sessions =
  G.map
    (fun (seats, occupied, opened) -> { P.seats; occupied; opened })
    G.(triple int int int)

let gen_tenant =
  G.(
    map
      (fun ((t_name, t_queued, t_inflight, t_submitted),
            (t_completed, t_rejected, t_p50_ms, t_p99_ms)) ->
        { P.t_name; t_queued; t_inflight; t_submitted; t_completed;
          t_rejected; t_p50_ms; t_p99_ms })
      (pair (quad gen_text int int int) (quad int int gen_float gen_float)))

let gen_campaign =
  G.(
    map
      (fun (ca_trials, ca_total, ca_batches, (ca_silent_wrong, ca_paused)) ->
        { P.ca_trials; ca_total; ca_batches; ca_silent_wrong; ca_paused })
      (quad int int int (pair int bool)))

let gen_status =
  G.(
    map
      (fun ( (uptime_ms, workers, busy, queue_depth),
             (queue_capacity, jobs, cache, sessions),
             (transport, tenants, campaign) ) ->
        { P.uptime_ms; workers; busy; queue_depth; queue_capacity; jobs;
          cache; sessions; transport; tenants; campaign })
      (triple
         (quad gen_float int int int)
         (quad int gen_jobs gen_cache gen_sessions)
         (triple gen_integrity
            (list_size (int_range 0 3) gen_tenant)
            (option gen_campaign))))

let gen_response =
  G.(
    oneof
      [
        map
          (fun (job, outcome, queue_ms, run_ms) ->
            P.Result { P.job; outcome; queue_ms; run_ms })
          (quad int gen_outcome gen_float gen_float);
        map2
          (fun reason retry_after_ms -> P.Rejected { reason; retry_after_ms })
          gen_text int;
        map
          (fun (job, code, message) -> P.Failed { job; code; message })
          (triple int gen_text gen_text);
        map (fun sid -> P.Stream_opened { sid }) int;
        map2 (fun sid records -> P.Stream_ack { sid; records }) int int;
        map
          (fun ((sid, final, records, races), (verdict, degraded, integrity)) ->
            P.Stream_verdict
              { P.sid; final; records; races; verdict; degraded; integrity })
          (pair
             (quad int bool int int)
             (triple gen_verdict bool gen_integrity));
        map (fun s -> P.Status_reply s) gen_status;
        map (fun text -> P.Metrics_reply text) gen_text;
        oneofl [ P.Pong; P.Stopping ];
        map (fun message -> P.Error message) gen_text;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"generated requests round-trip" ~count:1000
    ~print:P.encode_request gen_request (fun r ->
      P.decode_request (P.encode_request r) = Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"generated responses round-trip" ~count:1000
    ~print:P.encode_response gen_response (fun r ->
      P.decode_response (P.encode_response r) = Ok r)

let prop_mutated_frames =
  QCheck2.Test.make ~name:"mutated frames decode or fail, never raise"
    ~count:2000 ~print:(fun (line, _) -> line)
    G.(
      pair
        (oneof
           [
             map P.encode_request gen_request;
             map P.encode_response gen_response;
           ])
        Gen.gen_mutations)
    (fun (line, muts) ->
      let m = Gen.mutate line muts in
      ignore (P.decode_request m);
      ignore (P.decode_response m);
      true)

(* A frame of nothing but '[' used to recurse once per byte on the
   connection thread; it now fails at the 65th. *)
let test_deep_frame () =
  match P.decode_request (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "a 1 MB frame of '[' decoded"
  | Result.Error e ->
      Alcotest.(check string) "nesting error"
        "JSON parse error at byte 64: nesting deeper than 64" e

(* ---- framing ----------------------------------------------------- *)

let test_oversized_frame () =
  (* Unit level: the cap stops the read mid-line and is distinguishable
     from a clean EOF. *)
  let file = Filename.temp_file "barracuda-frame" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin file in
      let chunk = String.make 65536 'a' in
      for _ = 1 to (P.max_frame_bytes / 65536) + 1 do
        output_string oc chunk
      done;
      output_string oc "\n{\"cmd\":\"ping\"}\n";
      close_out oc;
      let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match P.read_frame (P.reader fd) with
          | P.Oversized -> ()
          | P.Frame _ -> Alcotest.fail "oversized frame was accepted"
          | P.Eof -> Alcotest.fail "oversized frame read as EOF");
      let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match P.read_frame (P.reader fd) with
          | P.Eof -> ()
          | _ -> Alcotest.fail "empty input should read as EOF"))

let test_oversized_frame_daemon () =
  with_server "oversize" (fun socket _t ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let chunk = Bytes.make 65536 'a' in
          let remaining = ref (P.max_frame_bytes + 2) in
          (try
             while !remaining > 0 do
               let n = min !remaining (Bytes.length chunk) in
               remaining := !remaining - Unix.write fd chunk 0 n
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          (match P.read_frame (P.reader fd) with
          | P.Frame line -> (
              match P.decode_response line with
              | Ok (P.Error _) -> ()
              | Ok r ->
                  Alcotest.failf "expected protocol error, got %s"
                    (P.encode_response r)
              | Result.Error e -> Alcotest.failf "undecodable reply: %s" e)
          | P.Eof | P.Oversized ->
              Alcotest.fail "daemon closed without a protocol error reply"));
      (* The daemon survives the abuse and keeps serving. *)
      Alcotest.(check bool)
        "daemon still responsive" true
        (Service.Client.ping ~socket))

(* [bytes] written into one end of a socketpair by a thread of its own,
   in pieces of the (cyclic) [sizes], then that end closed: what the
   other end's reader returns, up to and including its [Eof] or
   [Oversized]. *)
let frames_through_socketpair ~sizes bytes =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        (try
           let pos = ref 0 and i = ref 0 in
           while !pos < String.length bytes do
             let n =
               min
                 sizes.(!i mod Array.length sizes)
                 (String.length bytes - !pos)
             in
             pos := !pos + Unix.write_substring a bytes !pos n;
             incr i
           done
         with Unix.Unix_error _ -> ());
        Unix.close a)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close b;
      Thread.join writer)
    (fun () ->
      let r = P.reader b in
      let rec go acc =
        match P.read_frame r with
        | P.Frame _ as f -> go (f :: acc)
        | (P.Eof | P.Oversized) as f -> List.rev (f :: acc)
      in
      go [])

let gen_framed =
  G.(
    let byte = map (fun c -> if c = '\n' then ' ' else c) char in
    let* frames =
      list_size (int_range 0 8) (string_size ~gen:byte (int_range 0 8192))
    in
    let* tail = opt (string_size ~gen:byte (int_range 1 8192)) in
    let* sizes =
      array_size (int_range 1 4) (oneof [ int_range 1 16; int_range 1 16384 ])
    in
    return (frames, tail, sizes))

let print_framed (frames, tail, sizes) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "frames of [%s] bytes, tail %s, writes of [%s] bytes"
    (ints (List.map String.length frames))
    (match tail with
    | Some t -> string_of_int (String.length t)
    | None -> "none")
    (ints (Array.to_list sizes))

(* Frames written back to back in any cut read back whole and in
   order, an unterminated tail included, then [Eof]. *)
let prop_framing =
  QCheck2.Test.make ~name:"frames survive any write sizes" ~count:100
    ~print:print_framed gen_framed (fun (frames, tail, sizes) ->
      let wire =
        String.concat "" (List.map (fun f -> f ^ "\n") frames)
        ^ Option.value ~default:"" tail
      in
      let expected = frames @ Option.to_list tail in
      frames_through_socketpair ~sizes wire
      = List.map (fun f -> P.Frame f) expected @ [ P.Eof ])

(* The cap is inclusive: a line of exactly [max_frame_bytes] bytes is a
   frame, and the frame behind it is read intact. *)
let test_frame_at_cap () =
  let line = String.make P.max_frame_bytes 'a' in
  match
    frames_through_socketpair ~sizes:[| 65536 |]
      (line ^ "\n{\"cmd\":\"ping\"}\n")
  with
  | [ P.Frame l; P.Frame ping; P.Eof ] ->
      Alcotest.(check int) "the whole line" P.max_frame_bytes (String.length l);
      Alcotest.(check bool) "its bytes" true (l = line);
      Alcotest.(check string) "the next frame" "{\"cmd\":\"ping\"}" ping
  | _ -> Alcotest.fail "a line at the cap did not read as one frame"

(* ---- artifact cache ---------------------------------------------- *)

let trivial_ptx = ".visible .entry ok (.param .u64 p0)\n{\n    ret;\n}\n"

let tiny_entry () =
  let b = Ptx.Builder.create ~params:[ "p0" ] "tiny" in
  Ptx.Builder.st b (Ptx.Builder.sym "p0") (Ptx.Builder.imm 1);
  let kernel = Ptx.Builder.finish b in
  { Service.Cache.kernel; plan = Static.Plan.of_kernel kernel }

let test_cache_accounting () =
  let cache = Service.Cache.create ~capacity:2 () in
  let builds = ref 0 in
  let build () =
    incr builds;
    tiny_entry ()
  in
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "first lookup misses" false hit;
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "second lookup hits" true hit;
  Alcotest.(check int) "hit does not rebuild" 1 !builds;
  ignore (Service.Cache.find_or_build cache "b" ~build);
  ignore (Service.Cache.find_or_build cache "c" ~build);
  let s = Service.Cache.stats cache in
  Alcotest.(check int) "bounded by capacity" 2 s.Service.Cache.entries;
  Alcotest.(check int) "evicted one entry" 1 s.Service.Cache.evictions;
  Alcotest.(check int) "hits counted" 1 s.Service.Cache.hits;
  Alcotest.(check int) "misses counted" 3 s.Service.Cache.misses;
  (* "a" was least recently used and must be the evictee: rebuilding it
     misses, while "c" still hits. *)
  let _, hit = Service.Cache.find_or_build cache "c" ~build in
  Alcotest.(check bool) "recent key survives" true hit;
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "LRU key was evicted" false hit;
  (* Failed builds propagate and are not negatively cached. *)
  (match
     Service.Cache.find_or_build cache "bad" ~build:(fun () ->
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "failing build should raise");
  let _, hit = Service.Cache.find_or_build cache "bad" ~build in
  Alcotest.(check bool) "failure was not cached" false hit;
  Alcotest.(check bool) "different sources, different keys" true
    (Service.Cache.key "x" <> Service.Cache.key "y");
  (* An entry depends on the source alone: a check and then a repair of
     the same source share it. *)
  let cache = Service.Cache.create () in
  let cache_hit kind =
    match
      Service.Exec.run ~cache ~job:1 (P.submit_defaults ~kind trivial_ptx)
    with
    | P.Result { outcome; _ } -> outcome.P.cache_hit
    | r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
  in
  let check = cache_hit P.Check in
  let repair = cache_hit P.Repair in
  Alcotest.(check (pair bool bool)) "check misses, then repair hits"
    (false, true) (check, repair)

(* ---- scheduler backpressure -------------------------------------- *)

(* Deterministic saturation: a controllable exec blocks its worker
   until released, so with one worker and a one-slot queue the third
   submission must be rejected synchronously. *)
let test_backpressure () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let running = ref 0 in
  let release = ref false in
  let exec ~job (_ : P.submit) =
    Mutex.lock m;
    incr running;
    Condition.broadcast cv;
    while not !release do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    P.Result { job; outcome = P.default_outcome; queue_ms = 0.0; run_ms = 0.0 }
  in
  let sched =
    Service.Scheduler.create
      ~config:
        {
          Service.Scheduler.default_config with
          Service.Scheduler.workers = 1;
          queue_capacity = 1;
        }
      ~exec ()
  in
  let replies = ref [] in
  let reply r =
    Mutex.lock m;
    replies := r :: !replies;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let sub = P.submit_defaults ~kind:P.Check "irrelevant" in
  Service.Scheduler.submit sched sub ~reply;
  (* Wait until the worker holds job 1, so job 2 occupies the only
     queue slot and job 3 finds the queue full. *)
  Mutex.lock m;
  while !running < 1 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  Service.Scheduler.submit sched sub ~reply;
  let rejected = ref None in
  Service.Scheduler.submit sched sub ~reply:(fun r -> rejected := Some r);
  (match !rejected with
  | Some (P.Rejected { reason; retry_after_ms }) ->
      Alcotest.(check string) "reject reason" "queue_full" reason;
      Alcotest.(check int) "retry hint" Service.Scheduler.retry_after_ms
        retry_after_ms
  | _ -> Alcotest.fail "third submission should be rejected synchronously");
  Alcotest.(check int) "queue holds the waiting job" 1
    (Service.Scheduler.depth sched);
  Mutex.lock m;
  release := true;
  Condition.broadcast cv;
  while List.length !replies < 2 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  Service.Scheduler.stop sched;
  List.iter
    (function
      | P.Result _ -> ()
      | r -> Alcotest.failf "accepted job got %s" (P.encode_response r))
    !replies;
  let c = Service.Scheduler.counts sched in
  Alcotest.(check int) "completed" 2 c.Service.Scheduler.completed;
  Alcotest.(check int) "rejected" 1 c.Service.Scheduler.rejected;
  Alcotest.(check int) "failed" 0 c.Service.Scheduler.failed

(* ---- daemon lifecycle -------------------------------------------- *)

(* Parses fine, then blows up in CFG construction (dangling branch
   target) — an exception from the middle of the pipeline, which must
   fail only its own job. *)
let dangling_ptx =
  ".visible .entry crash (.param .u64 p0)\n{\n    bra NOWHERE;\n    ret;\n}\n"

let submit_verdict ?(retries = 0) ~socket sub =
  match Service.Client.submit ~retries ~socket sub with
  | Ok (P.Result { outcome; _ }) -> Ok outcome
  | Ok (P.Failed { code; message; _ }) ->
      Result.Error (Printf.sprintf "%s: %s" code message)
  | Ok r -> Result.Error (P.encode_response r)
  | Result.Error e -> Result.Error e

let test_ping_and_status () =
  with_server "status" (fun socket t ->
      Alcotest.(check bool) "ping" true (Service.Client.ping ~socket);
      let s =
        match Service.Client.status ~socket with
        | Ok s -> s
        | Result.Error e -> Alcotest.failf "status: %s" e
      in
      Alcotest.(check int) "workers" 2 s.P.workers;
      Alcotest.(check int) "queue capacity" 64 s.P.queue_capacity;
      Alcotest.(check int) "nothing submitted yet" 0 s.P.jobs.submitted;
      Alcotest.(check bool) "uptime advances" true (s.P.uptime_ms >= 0.0);
      (* The server-side view agrees with the wire view. *)
      let local = Service.Server.status t in
      Alcotest.(check int) "local status agrees" local.P.workers s.P.workers;
      match Service.Client.metrics ~socket with
      | Ok text ->
          let mentions_service =
            List.exists
              (String.starts_with ~prefix:"barracuda_service_")
              (String.split_on_char '\n' text)
          in
          Alcotest.(check bool)
            "prometheus text mentions service counters" true mentions_service
      | Result.Error e -> Alcotest.failf "metrics: %s" e)

let test_crash_isolation () =
  (* Confirm the crash kernel really parses: the failure under test is
     a mid-pipeline exception, not a parse error. *)
  ignore (Ptx.Parser.kernel_of_string dangling_ptx);
  with_server "crash" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check dangling_ptx)
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "mid-pipeline crash code" "exec_error" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      (* The daemon survived: it still answers and still checks. *)
      Alcotest.(check bool) "daemon alive after crash" true
        (Service.Client.ping ~socket);
      (match
         submit_verdict ~socket (P.submit_defaults ~kind:P.Check trivial_ptx)
       with
      | Ok o -> Alcotest.(check bool) "still checks" true (o.P.verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "submit after crash: %s" e);
      match Service.Client.status ~socket with
      | Ok s ->
          Alcotest.(check int) "one failed job" 1 s.P.jobs.failed;
          Alcotest.(check int) "one completed job" 1 s.P.jobs.completed
      | Result.Error e -> Alcotest.failf "status: %s" e)

let test_job_timeout () =
  with_server ~max_steps:1 "timeout" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check trivial_ptx)
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "budget exhaustion code" "timeout" code
      | Ok r -> Alcotest.failf "expected timeout, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      Alcotest.(check bool) "daemon alive after timeout" true
        (Service.Client.ping ~socket))

let test_bad_submissions () =
  with_server "badsub" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check "this is not ptx")
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "parse failure code" "parse_error" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      (match
         Service.Client.submit ~socket
           {
             (P.submit_defaults ~kind:P.Check trivial_ptx) with
             P.args = [ "alloc:nonsense" ];
           }
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "bad argument code" "bad_request" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      Alcotest.(check bool) "daemon alive" true (Service.Client.ping ~socket))

(* ---- report parity with one-shot checking ------------------------ *)

let source_of_kernel k = Format.asprintf "%a" Ptx.Printer.pp_kernel k

let arg_specs (c : Case.t) =
  List.map (fun _ -> "alloc:256") c.Case.kernel.Ptx.Ast.params

(* A bug-suite case as a daemon check: its printed source at its
   layout, every parameter an [alloc:256] buffer (daemon-fleet's
   traffic is the first four). *)
let case_sub (c : Case.t) =
  let layout = c.Case.layout in
  {
    (P.submit_defaults ~kind:P.Check (source_of_kernel c.Case.kernel)) with
    P.layout =
      Some
        ( layout.Vclock.Layout.blocks,
          layout.Vclock.Layout.threads_per_block,
          layout.Vclock.Layout.warp_size );
    args = arg_specs c;
  }

(* [barracuda check]'s run of a submission: the plain kernel through the
   session core, at the daemon's step budget. *)
let plain_run (c : Case.t) (sub : P.submit) =
  let kernel = Ptx.Parser.kernel_of_string sub.P.payload in
  let machine = Simt.Machine.create ~layout:c.Case.layout () in
  let args = Service.Exec.resolve_args machine kernel sub.P.args in
  Gpu_runtime.Session.run_stream
    ~max_steps:Service.Exec.default_config.Service.Exec.max_steps ~machine
    kernel args

let first_errors report =
  List.filteri
    (fun i _ -> i < 20)
    (List.map
       (Format.asprintf "%a" Barracuda.Report.pp_error)
       (Barracuda.Report.errors report))

(* What a check reply carries, [None] for a step-budget timeout: its
   verdict, race count and first 20 errors, in order.  A static answer
   would differ from check's report; every bug-suite case executes. *)
let reply_of (o : P.outcome) =
  Some (P.verdict_string o.P.verdict, o.P.races, o.P.errors)

let oneshot_reply c sub =
  let r = plain_run c sub in
  match r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status with
  | Simt.Machine.Max_steps _ | Simt.Machine.Deadline _ -> None
  | Simt.Machine.Completed ->
      let report = r.Gpu_runtime.Session.sr_report in
      Some
        ( P.verdict_string
            (if Barracuda.Report.has_race report then P.Racy else P.Race_free),
          Barracuda.Report.race_count report,
          first_errors report )

let test_bugsuite_parity () =
  (* The counter assertion at the end needs live telemetry (the CLI's
     [serve] turns it on; tests run with it off by default). *)
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  with_server ~workers:2 "parity" (fun socket _t ->
      let cases = Bugsuite.Cases.all in
      let reply = Alcotest.(option (triple string int (list string))) in
      List.iter
        (fun (c : Case.t) ->
          let sub = case_sub c in
          let via_service =
            match Service.Client.submit ~retries:10 ~socket sub with
            | Ok (P.Result { outcome; _ }) -> reply_of outcome
            | Ok (P.Failed { code = "timeout"; _ }) -> None
            | Ok r ->
                Alcotest.failf "case %s: unexpected reply %s" c.Case.name
                  (P.encode_response r)
            | Result.Error e ->
                Alcotest.failf "case %s: transport: %s" c.Case.name e
          in
          Alcotest.check reply
            (c.Case.name ^ ": daemon reply = check report")
            (oneshot_reply c sub) via_service)
        cases;
      (* Resubmitting a kernel already checked must hit the artifact
         cache, and the hit must show up in the service counters. *)
      (match
         Service.Client.submit ~retries:10 ~socket (case_sub (List.hd cases))
       with
      | Ok (P.Result { outcome; _ }) ->
          Alcotest.(check bool) "resubmission hits the cache" true
            outcome.P.cache_hit
      | Ok r -> Alcotest.failf "resubmit: unexpected reply %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "resubmit: transport: %s" e);
      (match Service.Client.status ~socket with
      | Ok s ->
          Alcotest.(check bool) "status counts the hit" true
            (s.P.cache.hits >= 1);
          Alcotest.(check int) "every submission accounted" (List.length cases + 1)
            s.P.jobs.submitted
      | Result.Error e -> Alcotest.failf "status: %s" e);
      match Service.Client.metrics ~socket with
      | Ok text ->
          let hit_line =
            String.split_on_char '\n' text
            |> List.find_opt (fun l ->
                   String.length l > 0
                   && l.[0] <> '#'
                   && String.starts_with ~prefix:"barracuda_service_cache_hits"
                        l)
          in
          (match hit_line with
          | Some line ->
              let value =
                match String.rindex_opt line ' ' with
                | Some i ->
                    float_of_string_opt
                      (String.sub line (i + 1) (String.length line - i - 1))
                | None -> None
              in
              Alcotest.(check bool)
                "barracuda_service_cache_hits counter advanced" true
                (match value with Some v -> v >= 1.0 | None -> false)
          | None ->
              Alcotest.fail "barracuda_service_cache_hits missing from metrics")
      | Result.Error e -> Alcotest.failf "metrics: %s" e)

(* ---- predictive jobs --------------------------------------------- *)

let test_predict_over_trace () =
  let c = List.hd Bugsuite.Cases.predictive in
  let layout = c.Case.layout in
  let m = Simt.Machine.create ~layout () in
  let args = c.Case.setup m in
  let ops, _ = Gtrace.Infer.run ~layout m c.Case.kernel args in
  let payload = Gtrace.Serialize.to_string ~layout ops in
  let local = Predict.Analysis.run ~layout ops in
  with_server "predict" (fun socket _t ->
      match
        Service.Client.submit ~socket
          (P.submit_defaults ~kind:P.Predict payload)
      with
      | Ok (P.Result { outcome; _ }) ->
          Alcotest.(check bool) "verdict matches local analysis" true
            (outcome.P.verdict = P.Racy
            = Predict.Analysis.has_race local);
          Alcotest.(check bool)
            "predictive case is recovered from its trace" true
            (outcome.P.verdict = P.Racy);
          Alcotest.(check int) "prediction count matches"
            (Predict.Analysis.predicted_count local)
            outcome.P.predicted
      | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e)

(* ---- streaming sessions ------------------------------------------ *)

(* Record a case's wire stream locally through the session core; the
   recording is the exact batch feed, so daemon-side replay parity is
   chunking + transport only. *)
let record_case (c : Case.t) =
  let layout = c.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = c.Case.setup machine in
  let buf = Buffer.create 4096 in
  let r =
    Gpu_runtime.Session.run_stream ~capture:buf ~machine c.Case.kernel args
  in
  ( Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report,
    r.Gpu_runtime.Session.sr_records,
    Buffer.contents buf )

let stream_sub (c : Case.t) = { (case_sub c) with P.args = [] }

let ship_chunked s ~chunk bytes =
  let total = String.length bytes in
  let pos = ref 0 in
  while !pos < total do
    let len = min chunk (total - !pos) in
    (match Service.Client.stream_append s (String.sub bytes !pos len) with
    | Ok _ -> ()
    | Result.Error e -> Alcotest.failf "append: %s" e);
    pos := !pos + len
  done

let test_streaming_session () =
  with_server "stream" (fun socket _t ->
      List.iter
        (fun (c : Case.t) ->
          let racy, records, bytes = record_case c in
          match Service.Client.stream_open ~socket (stream_sub c) with
          | Result.Error e -> Alcotest.failf "open: %s" e
          | Ok s ->
              (* split mid-record: 777 is coprime to the cell size *)
              let half = String.length bytes / 2 in
              ship_chunked s ~chunk:777 (String.sub bytes 0 half);
              (match Service.Client.stream_flush s with
              | Ok v ->
                  Alcotest.(check bool)
                    (c.Case.name ^ ": checkpoint is a prefix verdict")
                    true
                    (v.P.records <= records && not v.P.final)
              | Result.Error e -> Alcotest.failf "flush: %s" e);
              ship_chunked s ~chunk:777
                (String.sub bytes half (String.length bytes - half));
              (match Service.Client.stream_close s with
              | Ok v ->
                  Alcotest.(check bool) (c.Case.name ^ ": final") true
                    v.P.final;
                  Alcotest.(check int) (c.Case.name ^ ": all records landed")
                    records v.P.records;
                  Alcotest.(check bool)
                    (c.Case.name ^ ": verdict matches the local batch run")
                    racy
                    (v.P.verdict = P.Racy);
                  Alcotest.(check bool) (c.Case.name ^ ": clean transport")
                    false v.P.degraded
              | Result.Error e -> Alcotest.failf "close: %s" e))
        [ List.hd Bugsuite.Cases.all;
          List.find (fun (c : Case.t) -> c.Case.verdict = Case.Race_free)
            Bugsuite.Cases.all ])

let test_streaming_seat_exhaustion () =
  with_server "seats" (fun socket _t ->
      let c = List.hd Bugsuite.Cases.all in
      let sub = stream_sub c in
      let open_ok () =
        match Service.Client.stream_open ~socket sub with
        | Ok s -> s
        | Result.Error e -> Alcotest.failf "open: %s" e
      in
      (* default config: 2 seats *)
      let a = open_ok () in
      let b = open_ok () in
      (match Service.Client.stream_open ~socket sub with
      | Ok _ -> Alcotest.fail "third session must be rejected"
      | Result.Error e ->
          Alcotest.(check bool) "backpressure names the reason" true
            (String.length e >= 8
            && String.sub e 0 8 = "rejected"));
      (* releasing a seat makes streaming available again *)
      (match Service.Client.stream_close a with
      | Ok v ->
          Alcotest.(check bool) "empty session closes race-free" true
            (v.P.verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "close: %s" e);
      let c3 = open_ok () in
      Service.Client.stream_abort c3;
      Service.Client.stream_abort b)

let anomalies (i : Barracuda.Report.integrity) =
  [ i.corrupt; i.gaps; i.stale; i.desync ]

let test_streaming_integrity_in_status () =
  (* a corrupted chunk must degrade the session verdict, and the
     daemon's status must count exactly the anomalies its verdict
     reports, on the serial backend and on 2 shards alike *)
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  List.iter
    (fun job_shards ->
      let label what = Printf.sprintf "%d job shards: %s" job_shards what in
      with_server ~job_shards "integrity" (fun socket _t ->
          let c = List.hd Bugsuite.Cases.all in
          let _, records, bytes = record_case c in
          let b = Bytes.of_string bytes in
          (* flip a checksum-covered header byte of the first record *)
          Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0xff));
          match Service.Client.stream_open ~socket (stream_sub c) with
          | Result.Error e -> Alcotest.failf "open: %s" e
          | Ok s -> (
              ship_chunked s ~chunk:4096 (Bytes.to_string b);
              let v =
                match Service.Client.stream_close s with
                | Ok v -> v
                | Result.Error e -> Alcotest.failf "close: %s" e
              in
              Alcotest.(check bool) (label "degraded") true v.P.degraded;
              Alcotest.(check int) (label "one corrupt record") 1
                v.P.integrity.corrupt;
              Alcotest.(check int) (label "its sequence number lost") 1
                v.P.integrity.gaps;
              Alcotest.(check int) (label "the rest landed") (records - 1)
                v.P.records;
              match Service.Client.status ~socket with
              | Ok st ->
                  Alcotest.(check (list int))
                    (label "status counts the session's anomalies")
                    (anomalies v.P.integrity) (anomalies st.P.transport)
              | Result.Error e -> Alcotest.failf "status: %s" e)))
    [ 1; 2 ]

(* Transport faults injected elsewhere in the daemon's process — the
   background campaign's trials run in it — are not the daemon's
   sessions' anomalies, so status does not count them. *)
let test_status_ignores_outside_faults () =
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  let c = List.hd Bugsuite.Cases.all in
  let machine = Simt.Machine.create ~layout:c.Case.layout () in
  let fault =
    Fault.Plan.make
      { Fault.Plan.none with seed = 7; bit_flip = 0.2; drop = 0.2;
        duplicate = 0.2 }
  in
  let r =
    Gpu_runtime.Session.run_stream ~fault ~machine c.Case.kernel
      (c.Case.setup machine)
  in
  Alcotest.(check bool) "the faulted run is degraded" true
    (Barracuda.Report.degraded r.Gpu_runtime.Session.sr_report);
  with_server "outside" (fun socket _t ->
      match Service.Client.status ~socket with
      | Ok st ->
          Alcotest.(check (list int)) "no transport anomalies" [ 0; 0; 0; 0 ]
            (anomalies st.P.transport)
      | Result.Error e -> Alcotest.failf "status: %s" e)

(* A provably racy kernel is answered by the worker from its cache
   entry, without executing it; the second submission's cache hit is
   counted like any other. *)
let test_static_hit_counted () =
  with_server "static-hit" (fun socket _t ->
      let sub = P.submit_defaults ~kind:P.Check Example_ptx.static_racy in
      let submit () =
        match Service.Client.submit ~socket sub with
        | Ok (P.Result { outcome; _ }) -> outcome
        | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
        | Result.Error e -> Alcotest.failf "transport: %s" e
      in
      let first = submit () in
      let second = submit () in
      Alcotest.(check bool) "answered statically" true
        (first.P.static && second.P.static && second.P.verdict = P.Racy);
      Alcotest.(check (pair bool bool)) "miss, then hit" (false, true)
        (first.P.cache_hit, second.P.cache_hit);
      match Service.Client.status ~socket with
      | Ok s ->
          Alcotest.(check (pair int int)) "status counts the hit" (1, 1)
            (s.P.cache.hits, s.P.cache.misses);
          Alcotest.(check int) "both jobs racy" 2 s.P.jobs.racy
      | Result.Error e -> Alcotest.failf "status: %s" e)

(* ---- multi-tenant scheduling ------------------------------------- *)

(* A gated exec over a bare scheduler: jobs block while [hold] is set,
   so tests control exactly which jobs are in flight. *)
let gated_scheduler ?(workers = 1) ?(queue_capacity = 64) ?(tenant_quotas = [])
    () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let running = ref 0 in
  let hold = ref true in
  let order = ref [] in
  let exec ~job (sub : P.submit) =
    Mutex.lock m;
    incr running;
    order := sub.P.payload :: !order;
    Condition.broadcast cv;
    while !hold do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    P.Result { job; outcome = P.default_outcome; queue_ms = 0.0; run_ms = 0.0 }
  in
  let sched =
    Service.Scheduler.create
      ~config:
        {
          Service.Scheduler.default_config with
          Service.Scheduler.workers;
          queue_capacity;
          tenant_quotas;
        }
      ~exec ()
  in
  let wait_running n =
    Mutex.lock m;
    while !running < n do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    hold := false;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  (sched, wait_running, release, order, m)

let tenant_submit sched ~tenant ~payload ~reply =
  Service.Scheduler.submit sched
    {
      (P.submit_defaults ~kind:P.Check payload) with
      P.tenant = Some tenant;
    }
    ~reply

let find_tenant name (tenants : P.tenant_status list) =
  match List.find_opt (fun t -> t.P.t_name = name) tenants with
  | Some t -> t
  | None -> Alcotest.failf "tenant %s missing from status" name

(* Fairness under load: one worker, two tenants with deep backlogs —
   DRR must interleave them ~1:1 regardless of enqueue order, so
   neither tenant's throughput falls below its fair share while the
   other has work queued. *)
let test_tenant_fairness () =
  let sched, wait_running, release, order, m = gated_scheduler () in
  let done_count = ref 0 in
  let reply _ =
    Mutex.lock m;
    incr done_count;
    Mutex.unlock m
  in
  (* Park the worker on a warm-up job so both backlogs queue up
     behind it before any dequeue decision is made. *)
  tenant_submit sched ~tenant:"warm" ~payload:"warm" ~reply;
  wait_running 1;
  for i = 1 to 6 do
    tenant_submit sched ~tenant:"alpha"
      ~payload:(Printf.sprintf "alpha%d" i) ~reply
  done;
  for i = 1 to 6 do
    tenant_submit sched ~tenant:"beta"
      ~payload:(Printf.sprintf "beta%d" i) ~reply
  done;
  release ();
  Service.Scheduler.stop sched;
  (* [order] records pickup order, most recent first. *)
  let pickups = List.rev !order in
  (match pickups with
  | "warm" :: rest ->
      (* In every prefix of the drain, neither tenant may lag the
         other by more than one job: that is exact round-robin, the
         fair share for equal quanta. *)
      let rec scan a b = function
        | [] -> ()
        | p :: rest ->
            let a, b =
              if String.length p >= 5 && String.sub p 0 5 = "alpha" then
                (a + 1, b)
              else (a, b + 1)
            in
            Alcotest.(check bool)
              (Printf.sprintf "fair prefix (%d alpha vs %d beta)" a b)
              true
              (abs (a - b) <= 1);
            scan a b rest
      in
      scan 0 0 rest
  | _ -> Alcotest.fail "warm-up job must run first");
  (* The exact order, pick for pick. *)
  Alcotest.(check (list string))
    "pickup order"
    ("warm"
    :: List.concat_map
         (fun i -> [ Printf.sprintf "alpha%d" i; Printf.sprintf "beta%d" i ])
         [ 1; 2; 3; 4; 5; 6 ])
    pickups;
  Alcotest.(check int) "everything completed" 13 !done_count;
  let tenants = Service.Scheduler.tenant_status sched in
  let a = find_tenant "alpha" tenants and b = find_tenant "beta" tenants in
  Alcotest.(check int) "alpha all done" 6 a.P.t_completed;
  Alcotest.(check int) "beta all done" 6 b.P.t_completed

(* Token-bucket admission: burst 2 with a near-zero refill rate admits
   exactly two jobs and rejects the third with reason "tenant_quota"
   and a positive retry hint — while an unquota'd tenant sails
   through. *)
let test_tenant_quota_reject () =
  let quotas =
    [ ("metered", { Service.Scheduler.rate = 0.0001; burst = 2; seats = 0 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:1 ~tenant_quotas:quotas ()
  in
  let replies = ref [] in
  let reply r = replies := r :: !replies in
  tenant_submit sched ~tenant:"metered" ~payload:"m1" ~reply;
  wait_running 1;
  tenant_submit sched ~tenant:"metered" ~payload:"m2" ~reply;
  let rejected = ref None in
  tenant_submit sched ~tenant:"metered" ~payload:"m3"
    ~reply:(fun r -> rejected := Some r);
  (match !rejected with
  | Some (P.Rejected { reason; retry_after_ms }) ->
      Alcotest.(check string) "quota reject reason" "tenant_quota" reason;
      Alcotest.(check bool) "positive retry hint" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "third metered job must be rejected synchronously");
  (* Another tenant is untouched by the dry bucket. *)
  let other_rejected = ref false in
  tenant_submit sched ~tenant:"free" ~payload:"f1"
    ~reply:(fun r ->
      match r with P.Rejected _ -> other_rejected := true | _ -> ());
  release ();
  Service.Scheduler.stop sched;
  Alcotest.(check bool) "unquota'd tenant admitted" false !other_rejected;
  let tenants = Service.Scheduler.tenant_status sched in
  let metered = find_tenant "metered" tenants in
  Alcotest.(check int) "metered submitted" 2 metered.P.t_submitted;
  Alcotest.(check int) "metered completed" 2 metered.P.t_completed;
  Alcotest.(check int) "metered rejected" 1 metered.P.t_rejected;
  Alcotest.(check int) "global rejected count" 1
    (Service.Scheduler.counts sched).Service.Scheduler.rejected

(* Seat caps: a tenant capped to 1 concurrent job leaves the second
   worker free for other tenants instead of occupying it. *)
let test_tenant_seat_cap () =
  let quotas =
    [ ("capped", { Service.Scheduler.rate = 0.0; burst = 0; seats = 1 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:2 ~tenant_quotas:quotas ()
  in
  let done_all = ref 0 in
  let m2 = Mutex.create () in
  let reply _ =
    Mutex.lock m2;
    incr done_all;
    Mutex.unlock m2
  in
  tenant_submit sched ~tenant:"capped" ~payload:"c1" ~reply;
  tenant_submit sched ~tenant:"capped" ~payload:"c2" ~reply;
  wait_running 1;
  (* Give the second worker every chance to (wrongly) take c2. *)
  Thread.delay 0.1;
  Alcotest.(check int) "only one capped job in flight" 1
    (Service.Scheduler.busy sched);
  let tenants = Service.Scheduler.tenant_status sched in
  let capped = find_tenant "capped" tenants in
  Alcotest.(check int) "capped inflight" 1 capped.P.t_inflight;
  Alcotest.(check int) "capped queued" 1 capped.P.t_queued;
  (* The idle worker still serves other tenants. *)
  tenant_submit sched ~tenant:"free" ~payload:"f1" ~reply;
  wait_running 2;
  Alcotest.(check int) "free tenant runs alongside" 2
    (Service.Scheduler.busy sched);
  release ();
  Service.Scheduler.stop sched;
  Alcotest.(check int) "all three completed" 3 !done_all

(* Gauge hygiene under admission control: queue-depth, busy-worker and
   the per-tenant gauges never go negative and are all zeroed by
   [stop], across quota rejects and completed work alike. *)
let test_tenant_gauge_hygiene () =
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  let quotas =
    [ ("metered", { Service.Scheduler.rate = 0.0001; burst = 1; seats = 1 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:2 ~tenant_quotas:quotas ()
  in
  let reply _ = () in
  tenant_submit sched ~tenant:"metered" ~payload:"m1" ~reply;
  tenant_submit sched ~tenant:"metered" ~payload:"m2" ~reply;
  (* rejected: bucket dry *)
  tenant_submit sched ~tenant:"free" ~payload:"f1" ~reply;
  tenant_submit sched ~tenant:"free" ~payload:"f2" ~reply;
  wait_running 2;
  let reg = Telemetry.Registry.default in
  let g name tenant =
    Telemetry.Registry.find_gauge ~labels:[ ("tenant", tenant) ] reg name
  in
  Alcotest.(check bool) "queued gauges non-negative mid-flight" true
    (g "barracuda_service_tenant_queued" "metered" >= 0
    && g "barracuda_service_tenant_queued" "free" >= 0);
  Alcotest.(check bool) "inflight gauges non-negative mid-flight" true
    (g "barracuda_service_tenant_inflight" "metered" >= 0
    && g "barracuda_service_tenant_inflight" "free" >= 0);
  release ();
  Service.Scheduler.stop sched;
  List.iter
    (fun tenant ->
      Alcotest.(check int)
        (tenant ^ " queued gauge zero after stop")
        0
        (g "barracuda_service_tenant_queued" tenant);
      Alcotest.(check int)
        (tenant ^ " inflight gauge zero after stop")
        0
        (g "barracuda_service_tenant_inflight" tenant))
    [ "metered"; "free"; Service.Scheduler.default_tenant ];
  Alcotest.(check int) "queue depth zero after stop" 0
    (Telemetry.Registry.find_gauge reg "barracuda_service_queue_depth");
  Alcotest.(check int) "busy workers zero after stop" 0
    (Telemetry.Registry.find_gauge reg "barracuda_service_busy_workers");
  (* Counters (not gauges) carry the history: the reject is visible. *)
  Alcotest.(check int) "reject counter survives stop" 1
    (Telemetry.Registry.find_counter
       ~labels:[ ("tenant", "metered"); ("event", "rejected") ]
       reg "barracuda_service_tenant_jobs_total")

(* End-to-end: a tenant id on the wire shows up in the daemon's status
   reply with per-tenant accounting and latency percentiles. *)
let test_status_tenants_end_to_end () =
  with_server "tenants" (fun socket _t ->
      let sub =
        {
          (P.submit_defaults ~kind:P.Check trivial_ptx) with
          P.tenant = Some "acme";
        }
      in
      (match Service.Client.submit ~socket sub with
      | Ok (P.Result _) -> ()
      | Ok r -> Alcotest.failf "unexpected reply: %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "submit: %s" e);
      match Service.Client.status ~socket with
      | Result.Error e -> Alcotest.failf "status: %s" e
      | Ok s ->
          let acme = find_tenant "acme" s.P.tenants in
          Alcotest.(check int) "acme submitted" 1 acme.P.t_submitted;
          Alcotest.(check int) "acme completed" 1 acme.P.t_completed;
          Alcotest.(check int) "acme rejected" 0 acme.P.t_rejected;
          Alcotest.(check bool) "acme p99 sane" true
            (acme.P.t_p99_ms >= acme.P.t_p50_ms && acme.P.t_p50_ms >= 0.0);
          (* The default tenant is pre-seated; no campaign runs here. *)
          ignore (find_tenant Service.Scheduler.default_tenant s.P.tenants);
          Alcotest.(check bool) "no campaign in a bare daemon" true
            (s.P.campaign = None))

(* ---- kept connections ------------------------------------------ *)

(* [f fd reader] on a connection of its own, outside the client's kept
   ones. *)
let with_raw_connection socket f =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      f fd (P.reader fd))

(* The next reply; [None] at end of file. *)
let read_reply reader =
  match P.read_frame reader with
  | P.Frame line -> (
      match P.decode_response line with
      | Ok r -> Some r
      | Result.Error e -> Alcotest.failf "undecodable reply: %s" e)
  | P.Eof -> None
  | P.Oversized -> Alcotest.fail "oversized reply"

let next_reply reader =
  match read_reply reader with
  | Some r -> r
  | None -> Alcotest.fail "end of file before a reply"

(* A connection of its own: [f] gets an exchange that sends one
   request and reads its reply. *)
let on_own_connection_raw socket f =
  with_raw_connection socket (fun fd reader ->
      f (fun line ->
          P.write_frame fd line;
          next_reply reader))

let on_own_connection socket f =
  on_own_connection_raw socket (fun ex ->
      f (fun req -> ex (P.encode_request req)))

(* A layout no detector can check is the client's error, answered
   [bad_request] before the cache is consulted: for a check, a repair
   and a stream, and for a kernel the static analysis would answer
   without executing.  The daemon then answers the next job. *)
let test_bad_layouts_rejected () =
  let sub ?(kind = P.Check) src layout =
    { (P.submit_defaults ~kind src) with P.layout = Some layout }
  in
  with_server "bad-layout" (fun socket _t ->
      on_own_connection socket (fun ex ->
          List.iter
            (fun (what, req) ->
              match ex req with
              | P.Failed { code; _ } ->
                  Alcotest.(check string) what "bad_request" code
              | r -> Alcotest.failf "%s: %s" what (P.encode_response r))
            [
              ("no blocks", P.Submit (sub trivial_ptx (0, 64, 32)));
              ("negative tpb", P.Submit (sub trivial_ptx (2, -1, 32)));
              ("warp 0", P.Submit (sub trivial_ptx (2, 64, 0)));
              ("warp 33", P.Submit (sub trivial_ptx (2, 64, 33)));
              ( "static_racy at warp 33",
                P.Submit (sub Example_ptx.static_racy (2, 64, 33)) );
              ( "repair at warp 33",
                P.Submit (sub ~kind:P.Repair trivial_ptx (2, 64, 33)) );
              ( "stream at warp 33",
                P.Stream_open (sub trivial_ptx (2, 64, 33)) );
            ];
          match ex (P.Submit (P.submit_defaults ~kind:P.Check trivial_ptx)) with
          | P.Result { outcome; _ } ->
              Alcotest.(check (pair bool bool))
                "next job race-free, the cache's first miss" (true, false)
                (outcome.P.verdict = P.Race_free, outcome.P.cache_hit)
          | r -> Alcotest.failf "next job: %s" (P.encode_response r)))

(* A frame from a client that still sends the retired "prune" field
   decodes as it would without it, and a daemon answers it. *)
let test_old_client_frames () =
  let predict =
    fst
      (List.find
         (function P.Submit { P.kind = P.Predict; _ }, _ -> true | _ -> false)
         golden_requests)
  in
  Alcotest.(check bool) "the old predict golden line" true
    (P.decode_request
       "{\"cmd\":\"submit\",\"kind\":\"predict\",\"payload\":\"line one\\nline \\\"two\\\"\\ttab\\\\slash\\u0001\",\"layout\":{\"blocks\":4,\"tpb\":128,\"warp\":32},\"args\":[\"alloc:256\",\"int:7\",\"42\"],\"tenant\":\"acme\",\"prune\":false,\"static\":false}"
    = Ok predict);
  let sub = P.Submit (P.submit_defaults ~kind:P.Check trivial_ptx) in
  let line = P.encode_request sub in
  let with_prune b =
    Printf.sprintf "%s,\"prune\":%b}"
      (String.sub line 0 (String.length line - 1))
      b
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) (with_prune b) true
        (P.decode_request (with_prune b) = Ok sub))
    [ true; false ];
  with_server "old-client" (fun socket _t ->
      on_own_connection_raw socket (fun ex ->
          List.iter
            (fun b ->
              match ex (with_prune b) with
              | P.Result { outcome; _ } ->
                  Alcotest.(check string) "answered" "race_free"
                    (P.verdict_string outcome.P.verdict)
              | r -> Alcotest.failf "prune %b: %s" b (P.encode_response r))
            [ true; false ]))

(* A daemon configuration on a socket path no client of this process
   has used, so the client holds no kept connection to it yet. *)
let fresh_config name =
  let config =
    { Service.Server.default_config with socket_path = tmp_socket name }
  in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  config

(* Whether [Server.stop t], run on a thread of its own, returns within
   2 s: a stop that hangs fails its test instead of hanging the
   suite. *)
let stops_in_time t =
  let finished = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Service.Server.stop t;
         Atomic.set finished true)
       ());
  let deadline = Unix.gettimeofday () +. 2.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Atomic.get finished

let with_started config f =
  let t = Service.Server.start ~config () in
  let stopped = ref false in
  let v = Fun.protect ~finally:(fun () -> stopped := stops_in_time t) f in
  if not !stopped then Alcotest.fail "daemon did not stop within 2 s";
  v

let outcome_of = function
  | P.Result { outcome; _ } -> { outcome with P.detect_ms = 0.0 }
  | r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)

(* One connection carries every sequential submission of a thread, and
   the replies are the ones connections of their own get. *)
let test_kept_connection_reused () =
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  let config = fresh_config "kept" in
  with_started config (fun () ->
      let socket = config.Service.Server.socket_path in
      let connections () =
        Telemetry.Registry.find_counter Telemetry.Registry.default
          "barracuda_service_connections_total"
      in
      let mix =
        Array.of_list (List.filteri (fun i _ -> i < 4) Bugsuite.Cases.all)
      in
      let before = connections () in
      let kept =
        List.init 50 (fun i ->
            let c = mix.(i mod Array.length mix) in
            match Service.Client.submit ~socket (case_sub c) with
            | Ok r -> (c, outcome_of r)
            | Result.Error e -> Alcotest.failf "submit %d: %s" i e)
      in
      Alcotest.(check int) "50 submissions, one connection" 1
        (connections () - before);
      (* the last round, all cache hits like the own-connection ones *)
      List.iter
        (fun (c, kept) ->
          let own =
            on_own_connection socket (fun ex ->
                outcome_of (ex (P.Submit (case_sub c))))
          in
          if own <> kept then
            Alcotest.failf "%s: kept-connection outcome differs" c.Case.name)
        (List.filteri (fun i _ -> i >= 50 - Array.length mix) kept))

(* A kept connection to a daemon that has since stopped is replaced on
   the next request, not reported. *)
let test_kept_connection_outlives_daemon () =
  let config = fresh_config "restart" in
  let socket = config.Service.Server.socket_path in
  let sub = P.submit_defaults ~kind:P.Check trivial_ptx in
  let t = Service.Server.start ~config () in
  let first = submit_verdict ~socket sub in
  Service.Server.stop t;
  (match first with
  | Ok _ -> ()
  | Result.Error e -> Alcotest.failf "first daemon: %s" e);
  with_started config (fun () ->
      (match submit_verdict ~socket sub with
      | Ok o ->
          Alcotest.(check bool) "second daemon checks" true
            (o.P.verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "second daemon: %s" e);
      Alcotest.(check bool) "second daemon answers a ping" true
        (Service.Client.ping ~socket);
      (* Stopping the first daemon again touches nothing of the
         second: not its listener, not its socket file. *)
      Alcotest.(check bool) "repeated stop returns" true (stops_in_time t);
      Alcotest.(check bool) "socket file kept" true (Sys.file_exists socket);
      Alcotest.(check bool) "second daemon answers after a repeated stop"
        true
        (Service.Client.ping ~socket))

(* An idle kept connection does not hold a stopping daemon for its
   read timeout. *)
let test_stop_with_idle_connection () =
  let config = fresh_config "idle-stop" in
  let t = Service.Server.start ~config () in
  let alive = Service.Client.ping ~socket:config.socket_path in
  let t0 = Telemetry.Clock.now_ns () in
  Service.Server.stop t;
  let s = Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0) /. 1e9 in
  Alcotest.(check bool) "ping" true alive;
  if s >= 1.0 then Alcotest.failf "stop took %.2f s" s

(* A socket file nothing accepts on (bound, closed, never unlinked) is
   stale, and a starting daemon takes it over. *)
let test_stale_socket_taken_over () =
  let config = fresh_config "stale" in
  let socket = config.Service.Server.socket_path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  Alcotest.(check bool) "stale file left behind" true (Sys.file_exists socket);
  with_started config (fun () ->
      Alcotest.(check bool) "new daemon answers a ping" true
        (Service.Client.ping ~socket))

(* A second daemon on a live daemon's path is refused with
   [EADDRINUSE] and leaves the live one as it was: it answers and
   stops at once. *)
let test_live_socket_refused () =
  let config = fresh_config "live" in
  let socket = config.Service.Server.socket_path in
  let t = Service.Server.start ~config () in
  (match Service.Server.start ~config () with
  | second ->
      ignore (stops_in_time second);
      ignore (stops_in_time t);
      Alcotest.fail "a second daemon took a live daemon's path"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  let alive = Service.Client.ping ~socket in
  let t0 = Telemetry.Clock.now_ns () in
  Service.Server.stop t;
  let s = Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0) /. 1e9 in
  Alcotest.(check bool) "live daemon answers a ping" true alive;
  if s >= 1.0 then Alcotest.failf "stop took %.2f s" s

(* A reply carries the first 20 of a report's errors, as formatting
   them all and keeping 20 would give. *)
let test_reply_error_strings () =
  let c =
    List.find
      (fun (c : Case.t) -> c.Case.name = "ww_global_intra_warp_diff_value")
      Bugsuite.Cases.all
  in
  let sub = case_sub c in
  let report = (plain_run c sub).Gpu_runtime.Session.sr_report in
  Alcotest.(check int) "errors in the report" 124
    (List.length (Barracuda.Report.errors report));
  let expect = first_errors report in
  with_server "errors" (fun socket _t ->
      match submit_verdict ~socket sub with
      | Ok o -> Alcotest.(check (list string)) "reply errors" expect o.P.errors
      | Result.Error e -> Alcotest.failf "submit: %s" e)

(* A check submitted on a connection with an open streaming session is
   answered, and the session goes on to the verdict it would have had. *)
let test_submit_beside_session () =
  with_server "beside" (fun socket _t ->
      let c = List.hd Bugsuite.Cases.all in
      let racy, records, bytes = record_case c in
      let half = String.length bytes / 2 in
      on_own_connection socket (fun ex ->
          let sid =
            match ex (P.Stream_open (stream_sub c)) with
            | P.Stream_opened { sid } -> sid
            | r -> Alcotest.failf "open: %s" (P.encode_response r)
          in
          let append chunk =
            match ex (P.Stream_append { sid; chunk }) with
            | P.Stream_ack _ -> ()
            | r -> Alcotest.failf "append: %s" (P.encode_response r)
          in
          append (String.sub bytes 0 half);
          (match
             ex (P.Submit (P.submit_defaults ~kind:P.Check trivial_ptx))
           with
          | P.Result { outcome; _ } ->
              Alcotest.(check bool) "submission answered" true
                (outcome.P.verdict = P.Race_free)
          | r -> Alcotest.failf "submit: %s" (P.encode_response r));
          append (String.sub bytes half (String.length bytes - half));
          List.iter
            (fun (what, req, final) ->
              match ex req with
              | P.Stream_verdict v ->
                  Alcotest.(check (triple bool int bool))
                    (what ^ ": final, records, racy")
                    (final, records, racy)
                    (v.P.final, v.P.records, v.P.verdict = P.Racy)
              | r -> Alcotest.failf "%s: %s" what (P.encode_response r))
            [
              ("flush", P.Stream_flush { sid }, false);
              ("close", P.Stream_close { sid }, true);
            ]))

(* ---- replies written by the worker ------------------------------ *)

(* A check that runs for tens of milliseconds, so the frames sent
   after it arrive while its reply is still owed. *)
let slow_sub =
  {
    (P.submit_defaults ~kind:P.Check Example_ptx.stencil_race) with
    P.layout = Some (16, 256, 32);
  }

(* A check whose reply carries 20 error lines, ~2 KB. *)
let diff_value_sub () =
  case_sub
    (List.find
       (fun (c : Case.t) -> c.Case.name = "ww_global_intra_warp_diff_value")
       Bugsuite.Cases.all)

(* [requests] as frames, in one write. *)
let send_frames fd requests =
  let b =
    Bytes.of_string
      (String.concat ""
         (List.map (fun r -> P.encode_request r ^ "\n") requests))
  in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let job_of = function
  | P.Result { job; _ } -> job
  | r -> Alcotest.failf "expected a job result, got %s" (P.encode_response r)

let rec poll_until ?(deadline = Unix.gettimeofday () +. 5.0) what cond =
  if not (cond ()) then
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what
    else begin
      Thread.delay 0.002;
      poll_until ~deadline what cond
    end

(* Submit, ping, status and submit in one write: answered in that
   order, each job once.  The worker writes the first job's reply, and
   the connection thread acts on the ping only once it is out, so the
   status sees that job settled and the second not yet queued. *)
let test_pipelined_order () =
  with_server "pipelined" (fun socket _t ->
      with_raw_connection socket (fun fd reader ->
          send_frames fd
            [
              P.Submit slow_sub;
              P.Ping;
              P.Status;
              P.Submit (P.submit_defaults ~kind:P.Check trivial_ptx);
            ];
          let first = next_reply reader in
          (match next_reply reader with
          | P.Pong -> ()
          | r -> Alcotest.failf "second reply: %s" (P.encode_response r));
          (match next_reply reader with
          | P.Status_reply s ->
              Alcotest.(check (pair int int))
                "status: submitted, completed" (1, 1)
                (s.P.jobs.submitted, s.P.jobs.completed)
          | r -> Alcotest.failf "third reply: %s" (P.encode_response r));
          let second = next_reply reader in
          Alcotest.(check int) "the second job follows the first"
            (job_of first + 1) (job_of second);
          Alcotest.(check (pair string string))
            "verdicts" ("racy", "race_free")
            ( P.verdict_string (outcome_of first).P.verdict,
              P.verdict_string (outcome_of second).P.verdict );
          send_frames fd [ P.Ping ];
          match next_reply reader with
          | P.Pong -> ()
          | r ->
              Alcotest.failf "a reply answered twice: %s" (P.encode_response r)))

(* [f t socket] on a daemon of its own, stopped however [f] ends (a
   second stop returns at once). *)
let with_daemon name f =
  let config = fresh_config name in
  let t = Service.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop t)
    (fun () -> f t config.Service.Server.socket_path)

(* A client that hangs up while its job runs costs nobody else: the
   daemon answers the next client, settles the orphaned job, and stops
   in time with no connection left open. *)
let test_hangup_while_job_runs () =
  with_daemon "hangup" @@ fun t socket ->
  with_raw_connection socket (fun fd _ ->
      send_frames fd [ P.Submit slow_sub ]);
  (match
     submit_verdict ~socket (P.submit_defaults ~kind:P.Check trivial_ptx)
   with
  | Ok o ->
      Alcotest.(check bool) "the next client is answered" true
        (o.P.verdict = P.Race_free)
  | Result.Error e -> Alcotest.failf "next client: %s" e);
  if not (stops_in_time t) then Alcotest.fail "daemon did not stop within 2 s";
  Alcotest.(check int) "no live connection after stop" 0
    (Service.Server.live_connections t);
  Alcotest.(check int) "both jobs settled" 2
    (Service.Server.status t).P.jobs.completed

(* A stop while a job runs: the job's reply is in the client's socket
   and the connection has ended by the time the stop returns. *)
let test_stop_with_job_in_flight () =
  with_daemon "stop-inflight" @@ fun t socket ->
  with_raw_connection socket (fun fd reader ->
      send_frames fd [ P.Submit slow_sub ];
      poll_until "the job queued" (fun () ->
          (Service.Server.status t).P.jobs.submitted = 1);
      if not (stops_in_time t) then
        Alcotest.fail "daemon did not stop within 2 s";
      (* nothing left to wait for: a read that would block fails *)
      Unix.set_nonblock fd;
      ignore (job_of (next_reply reader));
      if read_reply reader <> None then
        Alcotest.fail "a frame after the job's reply";
      Alcotest.(check int) "no live connection after stop" 0
        (Service.Server.live_connections t))

(* Whether a bare connect to [path] is accepted (queued) right now. *)
let connects path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* A stopping daemon removes its socket file before it closes its
   listener: a second daemon started on the path the moment a start
   succeeds, while the first still stops, keeps its socket file. *)
let test_path_handed_over_on_stop () =
  let config = fresh_config "handover" in
  let socket = config.Service.Server.socket_path in
  let a = Service.Server.start ~config () in
  let b =
    with_raw_connection socket (fun fd reader ->
        send_frames fd [ P.Submit slow_sub ];
        poll_until "the job queued" (fun () ->
            (Service.Server.status a).P.jobs.submitted = 1);
        let stopper = Thread.create Service.Server.stop a in
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec take_over () =
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "no second daemon started within 5 s"
          else if connects socket then (
            Thread.delay 0.0002;
            take_over ())
          else
            match Service.Server.start ~config () with
            | b -> b
            | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> take_over ()
        in
        let b = take_over () in
        Thread.join stopper;
        ignore (job_of (next_reply reader));
        b)
  in
  let kept = Sys.file_exists socket in
  let answers = Service.Client.ping ~socket in
  let stopped = stops_in_time b in
  Alcotest.(check bool) "the second daemon's socket file kept" true kept;
  Alcotest.(check bool) "the second daemon answers a ping" true answers;
  Alcotest.(check bool) "the second daemon stops within 2 s" true stopped

(* A stop does not go through the socket path: with the daemon's file
   removed under it, the stop still returns. *)
let test_stop_without_socket_file () =
  let config = fresh_config "removed" in
  let socket = config.Service.Server.socket_path in
  let a = Service.Server.start ~config () in
  Unix.unlink socket;
  Alcotest.(check bool) "the stop returns within 2 s" true (stops_in_time a)

(* With the first daemon's file removed, a second daemon binds the
   path.  Stopping the first returns, and leaves the second its file
   and its listener. *)
let test_stop_beside_path_owner () =
  let config = fresh_config "reowned" in
  let socket = config.Service.Server.socket_path in
  let a = Service.Server.start ~config () in
  Unix.unlink socket;
  let b = Service.Server.start ~config () in
  let stopped = stops_in_time a in
  let kept = Sys.file_exists socket in
  let answers = Service.Client.ping ~socket in
  let b_stopped = stops_in_time b in
  Alcotest.(check bool) "the first daemon stops within 2 s" true stopped;
  Alcotest.(check bool) "the second daemon's socket file kept" true kept;
  Alcotest.(check bool) "the second daemon answers a ping" true answers;
  Alcotest.(check bool) "the second daemon stops within 2 s" true b_stopped

(* A write to a client that has stopped reading gives up within the
   bound: fill a socketpair until a write would block. *)
let test_write_bound () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      Unix.setsockopt_float a Unix.SO_SNDTIMEO Service.Server.write_bound_s;
      let frame = String.make 2000 'x' in
      let rec fill n =
        let t0 = Unix.gettimeofday () in
        match P.write_frame a frame with
        | () -> fill (n + 1)
        | exception Unix.Unix_error (e, _, _) ->
            (n, e, Unix.gettimeofday () -. t0)
      in
      let n, e, waited = fill 0 in
      Alcotest.(check bool) "frames fit before the buffer filled" true (n > 0);
      Alcotest.(check string)
        "the write fails" (Unix.error_message Unix.EAGAIN)
        (Unix.error_message e);
      if waited < 0.5 *. Service.Server.write_bound_s
         || waited > Service.Server.write_bound_s +. 1.0
      then Alcotest.failf "the last write waited %.2f s" waited)

(* A client that pipelines submissions and reads none of the replies:
   once the socket buffer is full (~49 of these 2 KB replies at Linux's
   default buffer size), the worker's write gives up within the bound,
   and the daemon shuts the connection down instead of running the
   rest. *)
let test_unread_replies_end_connection () =
  with_daemon "unread" @@ fun t socket ->
  let frames = 120 and sub = diff_value_sub () in
  let answered =
    with_raw_connection socket (fun fd reader ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        send_frames fd (List.init frames (fun _ -> P.Submit sub));
        poll_until "the first job queued" (fun () ->
            (Service.Server.status t).P.jobs.submitted >= 1);
        poll_until "the daemon closed the connection" (fun () ->
            Service.Server.live_connections t = 0);
        (* The connection ends at end of file, or at a reset: the
           daemon closed it with requests unread. *)
        let rec drain n =
          match read_reply reader with
          | None | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> n
          | Some r ->
              Alcotest.(check int) "replies in order" (n + 1) (job_of r);
              drain (n + 1)
        in
        drain 0)
  in
  Alcotest.(check bool) "the daemon answers the next client" true
    (Service.Client.ping ~socket);
  if not (stops_in_time t) then Alcotest.fail "daemon did not stop within 2 s";
  if answered >= frames then Alcotest.fail "every reply was written";
  Alcotest.(check int) "the jobs after the failed write never ran"
    (answered + 1) (Service.Server.status t).P.jobs.submitted

(* A reply whose encoding raises, whatever the exception, is a failed
   write: the owed mark clears, so the connection thread's wait ends,
   and the connection is shut down, so its reader sees end of file. *)
let test_raising_reply_ends_connection () =
  let module C = Service.Server.Conn in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      let c = C.create a and peer = P.reader b in
      C.owe c;
      let worker = Domain.spawn (fun () -> C.reply c (fun () -> "first")) in
      Alcotest.(check bool) "a written reply settles" true (C.settled c);
      Domain.join worker;
      Alcotest.(check bool) "the peer reads it" true
        (P.read_frame peer = P.Frame "first");
      C.owe c;
      (match
         Domain.join
           (Domain.spawn (fun () ->
                C.reply c (fun () -> raise Lazy.Undefined)))
       with
      | () -> ()
      | exception e -> Alcotest.failf "the reply raised %s" (Printexc.to_string e));
      Alcotest.(check bool) "nothing is owed" false (C.owed c);
      Alcotest.(check bool) "a raising reply settles as failed" false
        (C.settled c);
      Alcotest.(check bool) "the peer reads end of file" true
        (P.read_frame peer = P.Eof);
      Alcotest.(check bool) "a raising frame of the thread's own fails" false
        (C.send c (fun () -> raise Exit)))

let suite =
  [
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol golden lines" `Quick test_protocol_golden;
    Alcotest.test_case "deep frame is a nesting error" `Quick test_deep_frame;
    Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
    Alcotest.test_case "oversized frame on daemon" `Quick
      test_oversized_frame_daemon;
    Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
    Alcotest.test_case "queue backpressure" `Quick test_backpressure;
    Alcotest.test_case "ping and status" `Quick test_ping_and_status;
    Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
    Alcotest.test_case "job timeout" `Quick test_job_timeout;
    Alcotest.test_case "bad submissions" `Quick test_bad_submissions;
    Alcotest.test_case "bugsuite parity" `Slow test_bugsuite_parity;
    Alcotest.test_case "predict over trace" `Quick test_predict_over_trace;
    Alcotest.test_case "streaming session end-to-end" `Quick
      test_streaming_session;
    Alcotest.test_case "streaming seat exhaustion" `Quick
      test_streaming_seat_exhaustion;
    Alcotest.test_case "streaming integrity in status" `Quick
      test_streaming_integrity_in_status;
    Alcotest.test_case "status ignores faults outside the daemon's sessions"
      `Quick test_status_ignores_outside_faults;
    Alcotest.test_case "tenant fairness (DRR)" `Quick test_tenant_fairness;
    Alcotest.test_case "tenant quota rejects" `Quick test_tenant_quota_reject;
    Alcotest.test_case "tenant seat cap" `Quick test_tenant_seat_cap;
    Alcotest.test_case "tenant gauge hygiene" `Quick
      test_tenant_gauge_hygiene;
    Alcotest.test_case "status tenants end-to-end" `Quick
      test_status_tenants_end_to_end;
    Alcotest.test_case "status counts a statically answered hit" `Quick
      test_static_hit_counted;
    Alcotest.test_case "kept connection carries 50 submissions" `Quick
      test_kept_connection_reused;
    Alcotest.test_case "kept connection outlives its daemon" `Quick
      test_kept_connection_outlives_daemon;
    Alcotest.test_case "stop ends idle kept connections" `Quick
      test_stop_with_idle_connection;
    Alcotest.test_case "reply formats its 20 errors" `Quick
      test_reply_error_strings;
    Alcotest.test_case "submit beside a streaming session" `Quick
      test_submit_beside_session;
    Alcotest.test_case "stale socket file taken over" `Quick
      test_stale_socket_taken_over;
    Alcotest.test_case "live daemon's path refused" `Quick
      test_live_socket_refused;
    Alcotest.test_case "bad layouts are bad requests" `Quick
      test_bad_layouts_rejected;
    Alcotest.test_case "frames from older clients" `Quick
      test_old_client_frames;
  ]
  @ List.map Gen.to_alcotest
      [ prop_request_roundtrip; prop_response_roundtrip; prop_mutated_frames ]
  @ [
      Alcotest.test_case "frame at the cap" `Quick test_frame_at_cap;
      Gen.to_alcotest prop_framing;
      Alcotest.test_case "pipelined frames answered in order" `Quick
        test_pipelined_order;
      Alcotest.test_case "client hangs up while its job runs" `Quick
        test_hangup_while_job_runs;
      Alcotest.test_case "stop with a job in flight" `Quick
        test_stop_with_job_in_flight;
      Alcotest.test_case "a write waits at most the bound" `Quick
        test_write_bound;
      Alcotest.test_case "unread replies end the connection" `Quick
        test_unread_replies_end_connection;
      Alcotest.test_case "a raising reply ends the connection" `Quick
        test_raising_reply_ends_connection;
      Alcotest.test_case "a stopping daemon hands its path over" `Quick
        test_path_handed_over_on_stop;
      Alcotest.test_case "a stop returns with the socket file removed" `Quick
        test_stop_without_socket_file;
      Alcotest.test_case "a stop leaves the path's new owner alone" `Quick
        test_stop_beside_path_owner;
    ]
