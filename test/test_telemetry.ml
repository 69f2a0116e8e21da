(* Telemetry subsystem: registry semantics, exporter round-trips, and
   the session-core hooks.  The counters the hooks maintain must agree
   with the run's own record count, and enabling telemetry must not
   perturb detector verdicts. *)

module W = Workloads.Workload
module Session = Gpu_runtime.Session

let with_telemetry f =
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Metric and registry semantics                                       *)

let test_counter_gauge () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      let c = Telemetry.Registry.counter r "c_total" in
      Telemetry.Metric.counter_incr c;
      Telemetry.Metric.counter_add c 41;
      Alcotest.(check int) "counter" 42 (Telemetry.Metric.counter_value c);
      let g = Telemetry.Registry.gauge r "g" in
      Telemetry.Metric.gauge_max g 7;
      Telemetry.Metric.gauge_max g 3;
      Alcotest.(check int) "gauge keeps max" 7 (Telemetry.Metric.gauge_value g);
      let c' = Telemetry.Registry.counter r "c_total" in
      Telemetry.Metric.counter_incr c';
      Alcotest.(check int) "re-registration shares the metric" 43
        (Telemetry.Metric.counter_value c);
      Telemetry.Registry.reset r;
      Alcotest.(check int) "reset zeroes" 0 (Telemetry.Metric.counter_value c))

let test_disabled_is_noop () =
  Telemetry.Registry.set_enabled false;
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "c_total" in
  Telemetry.Metric.counter_incr c;
  Alcotest.(check int) "disabled counter stays 0" 0
    (Telemetry.Metric.counter_value c);
  let n = ref 0 in
  let v = Telemetry.Span.with_ ~registry:r ~name:"s" (fun () -> incr n; 9) in
  Alcotest.(check int) "thunk ran" 1 !n;
  Alcotest.(check int) "value passed through" 9 v;
  Alcotest.(check int) "no span recorded" 0
    (Telemetry.Registry.find_counter
       ~labels:[ ("span", "s") ]
       r "barracuda_span_calls_total")

let test_kind_mismatch () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      ignore (Telemetry.Registry.counter r "m");
      Alcotest.check_raises "kind mismatch rejected"
        (Invalid_argument "Telemetry.Registry: m already registered as a counter")
        (fun () -> ignore (Telemetry.Registry.gauge r "m")))

let test_labels_distinct () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      let a = Telemetry.Registry.counter ~labels:[ ("q", "0") ] r "d_total" in
      let b = Telemetry.Registry.counter ~labels:[ ("q", "1") ] r "d_total" in
      Telemetry.Metric.counter_add a 5;
      Telemetry.Metric.counter_incr b;
      Alcotest.(check int) "label set 0" 5
        (Telemetry.Registry.find_counter ~labels:[ ("q", "0") ] r "d_total");
      Alcotest.(check int) "label set 1" 1
        (Telemetry.Registry.find_counter ~labels:[ ("q", "1") ] r "d_total"))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let sample_registry () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter ~help:"a counter" r "x_total" in
  Telemetry.Metric.counter_add c 17;
  let g = Telemetry.Registry.gauge ~labels:[ ("k", "v") ] r "depth" in
  Telemetry.Metric.gauge_max g 12;
  let h =
    Telemetry.Registry.histogram ~bounds:[| 1.0; 10.0 |] r "lat_ms"
  in
  Telemetry.Metric.histogram_observe h 0.5;
  Telemetry.Metric.histogram_observe h 5.0;
  Telemetry.Metric.histogram_observe h 50.0;
  r

let test_json_roundtrip () =
  with_telemetry (fun () ->
      let r = sample_registry () in
      let doc = Telemetry.Export.json_of r in
      match Telemetry.Json.of_string (Telemetry.Export.to_json_string r) with
      | Error e -> Alcotest.failf "exported JSON does not parse: %s" e
      | Ok parsed ->
          Alcotest.(check bool) "parse (print doc) = doc" true (parsed = doc))

let test_json_parser () =
  let t = {|{"a": [1, -2.5, true, null], "b": {"s": "x\n\"y"}}|} in
  (match Telemetry.Json.of_string t with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      let first_of_a =
        match Telemetry.Json.member "a" j with
        | Some (Telemetry.Json.List (hd :: _)) -> Telemetry.Json.to_int hd
        | _ -> None
      in
      Alcotest.(check (option int)) "nested int" (Some 1) first_of_a;
      match Telemetry.Json.member "c" j with
      | None -> ()
      | Some _ -> Alcotest.fail "absent member"));
  match Telemetry.Json.of_string "{\"a\": }" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error _ -> ()

let test_json_depth_bound () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match Telemetry.Json.of_string (nested 64) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 64 rejected: %s" e);
  match Telemetry.Json.of_string (nested 65) with
  | Ok _ -> Alcotest.fail "depth 65 accepted"
  | Error e ->
      Alcotest.(check string) "error names the offending bracket"
        "JSON parse error at byte 64: nesting deeper than 64" e

(* One declaration, both directions, and the decoder's three error
   shapes: a missing field, a wrong JSON type, an unknown tag. *)
let test_json_codec () =
  let module C = Telemetry.Json.Codec in
  let point =
    C.(
      seal
        (obj (fun x tags -> (x, tags))
        |+ field "x" int fst
        |+ field ~default:[] ~omit:(( = ) []) "tags" (list str) snd))
  in
  Alcotest.(check string) "encoded in declaration order"
    {|{"x":1,"tags":["a"]}|}
    (C.to_string point (1, [ "a" ]));
  Alcotest.(check string) "omitted when empty" {|{"x":2}|}
    (C.to_string point (2, []));
  let decode s = C.of_string point s in
  Alcotest.(check bool) "default when absent" true
    (decode {|{"x":2}|} = Ok (2, []));
  Alcotest.(check bool) "missing field" true
    (decode {|{"tags":[]}|} = Error {|missing field "x"|});
  Alcotest.(check bool) "wrong type" true
    (decode {|{"x":"1"}|} = Error {|field "x" must be an integer|});
  Alcotest.(check bool) "wrong item type" true
    (decode {|{"x":1,"tags":[3]}|}
    = Error {|field "tags" must be a list, each item a string|});
  let shape =
    C.tagged "cmd"
      [
        ( "point",
          C.case point
            (fun p -> `Point p)
            (function `Point p -> Some p | _ -> None) );
        ( "stop",
          C.case
            C.(seal (obj ()))
            (fun () -> `Stop)
            (function `Stop -> Some () | _ -> None) );
      ]
  in
  Alcotest.(check string) "tag first" {|{"cmd":"point","x":3}|}
    (C.to_string shape (`Point (3, [])));
  Alcotest.(check bool) "tag decodes" true
    (C.of_string shape {|{"cmd":"stop"}|} = Ok `Stop);
  Alcotest.(check bool) "unknown tag" true
    (C.of_string shape {|{"cmd":"go"}|} = Error {|unknown cmd "go"|})

let test_prometheus () =
  with_telemetry (fun () ->
      let r = sample_registry () in
      let text = Telemetry.Export.to_prometheus r in
      let contains sub =
        let n = String.length sub and m = String.length text in
        let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "contains %S" line) true
            (contains line))
        [
          "# TYPE x_total counter";
          "x_total 17";
          "depth{k=\"v\"} 12";
          (* buckets are cumulative: 0.5 -> first, 5.0 -> second, 50 -> +Inf *)
          "lat_ms_bucket{le=\"1\"} 1";
          "lat_ms_bucket{le=\"10\"} 2";
          "lat_ms_bucket{le=\"+Inf\"} 3";
          "lat_ms_count 3";
        ])

(* ------------------------------------------------------------------ *)
(* Session-core hooks                                                  *)

(* The spans a multi-launch session's launch populates: the deployed
   instrumentation (with its static analysis), then the session core's
   execute and detect stages, inside the per-launch span. *)
let stage_names = [ "instrument"; "static.analyze"; "execute"; "detect"; "launch" ]

let launch_once (w : W.t) =
  let session = Session.create ~layout:w.W.layout () in
  let args = w.W.setup (Session.machine session) in
  Session.launch session w.W.kernel args

let test_hooks_match_queue_stats () =
  with_telemetry (fun () ->
      let r = launch_once (Workloads.Registry.find "backprop") in
      let counter = Telemetry.Registry.find_counter Telemetry.Registry.default in
      let records = r.Session.sr_records in
      Alcotest.(check bool) "records flowed" true (records > 0);
      Alcotest.(check int) "session counter = records shipped" records
        (counter "barracuda_session_records_total");
      Alcotest.(check int) "detector saw every record" records
        (counter "barracuda_detector_records_total"))

let test_stage_spans_in_json () =
  with_telemetry (fun () ->
      ignore (launch_once (Workloads.Registry.find "pathfinder"));
      let doc = Telemetry.Export.json_of Telemetry.Registry.default in
      let span_labels =
        match Telemetry.Json.member "metrics" doc with
        | Some (Telemetry.Json.List ms) ->
            List.filter_map
              (fun m ->
                match
                  ( Telemetry.Json.member "name" m,
                    Telemetry.Json.member "labels" m )
                with
                | Some (Telemetry.Json.Str "barracuda_span_calls_total"),
                  Some labels ->
                    Option.bind
                      (Telemetry.Json.member "span" labels)
                      Telemetry.Json.to_str
                | _ -> None)
              ms
        | _ -> []
      in
      let totals = Telemetry.Span.totals () in
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (Printf.sprintf "span %S exported" stage)
            true
            (List.mem stage span_labels);
          Alcotest.(check bool)
            (Printf.sprintf "span %S recorded" stage)
            true
            (match List.assoc_opt stage totals with
            | Some (calls, _) -> calls > 0
            | None -> false))
        stage_names)

let test_verdicts_unchanged () =
  (* telemetry must be observation-only: identical race counts with the
     registry enabled and disabled, across the whole workload registry *)
  List.iter
    (fun (w : W.t) ->
      Telemetry.Registry.set_enabled false;
      let off_report = (W.run w).Session.sr_report in
      with_telemetry (fun () ->
          let on_report = (W.run w).Session.sr_report in
          Alcotest.(check int)
            (Printf.sprintf "%s: race count unchanged" w.W.name)
            (Barracuda.Report.race_count off_report)
            (Barracuda.Report.race_count on_report);
          Alcotest.(check bool)
            (Printf.sprintf "%s: verdict unchanged" w.W.name)
            (Barracuda.Report.has_race off_report)
            (Barracuda.Report.has_race on_report)))
    Workloads.Registry.all

(* The detector's counters say what the word path does: one check per
   word summary, one full scan of a summary's inflated read clock, and
   one race observation per byte it stands for.  One warp of 4 lanes
   over one 4-byte word. *)
let test_word_path_counters () =
  let layout = Vclock.Layout.make ~warp_size:4 ~threads_per_block:4 ~blocks:1 in
  let counters emit =
    with_telemetry (fun () ->
        let b = Ptx.Builder.create ~params:[ "p" ] "word_path" in
        emit b;
        let kernel = Ptx.Builder.finish b in
        let machine = Simt.Machine.create ~layout () in
        let args = [| Int64.of_int (Simt.Machine.alloc_global machine 4) |] in
        let r = Session.run_stream ~machine kernel args in
        let c name =
          Telemetry.Registry.find_counter Telemetry.Registry.default
            ("barracuda_detector_" ^ name ^ "_total")
        in
        ( (c "checks", c "vc_full", c "races"),
          Barracuda.Report.race_count r.Session.sr_report ))
  in
  let p = Ptx.Builder.sym "p" in
  let counts = Alcotest.(pair (triple int int int) int) in
  (* four concurrent reads inflate the summary's read clock; lane 0's
     store, after them, scans it once *)
  Alcotest.check counts "reads, then an ordered store: one scan"
    ((5, 1, 0), 0)
    (counters (fun b ->
         Ptx.Builder.ld b (Ptx.Builder.fresh_reg b) p;
         Ptx.Builder.if_ b Ptx.Ast.C_eq (Ptx.Ast.Sreg Ptx.Ast.Tid)
           (Ptx.Builder.imm 0) (fun b ->
             Ptx.Builder.st b p (Ptx.Builder.imm 1))));
  (* lanes 1-3 each race with the lane before: 3 races per byte *)
  Alcotest.check counts "one racy warp store: 4 checks, 12 byte races"
    ((4, 0, 12), 12)
    (counters (fun b -> Ptx.Builder.st b p (Ptx.Ast.Sreg Ptx.Ast.Tid)))

(* The detector counts for itself and publishes once per record: the
   registry's deltas over a run must be the parent's per-event counts.
   [atomic_vs_plain_read] inflates a read clock (one full scan) and
   races (eight observations); the five deltas were measured before the
   detector kept its own counts, and its plan drops nothing.
   [backprop]'s plan drops 36 records: serially the published records,
   checks and planned-out records are the detector's own, and across
   shards the published checks and planned-out records add up to the
   detectors' own (each shard skips every planned record). *)
let test_published_counters () =
  let case =
    List.find
      (fun (c : Bugsuite.Case.t) -> c.name = "atomic_vs_plain_read")
      Bugsuite.Cases.all
  in
  let names =
    [ "records"; "checks"; "epoch_fast"; "vc_full"; "races"; "planned_out" ]
  in
  let deltas run =
    with_telemetry (fun () ->
        run ();
        List.map
          (fun n ->
            Telemetry.Registry.find_counter Telemetry.Registry.default
              ("barracuda_detector_" ^ n ^ "_total"))
          names)
  in
  let machine () =
    let m = Simt.Machine.create ~layout:case.layout () in
    (m, case.setup m)
  in
  Alcotest.(check (list int))
    "records, checks, epoch fast path, full scans, races, planned out"
    [ 16; 4; 6; 1; 8; 0 ]
    (deltas (fun () ->
         let m, args = machine () in
         ignore (Session.run_stream ~machine:m case.kernel args)));
  let w = Workloads.Registry.find "backprop" in
  let plan = Static.Plan.of_kernel w.W.kernel in
  let run sink =
    deltas (fun () ->
        let m = W.machine w in
        let args = w.W.setup m in
        ignore (Session.run_stream ~sink ~machine:m w.W.kernel args))
  in
  let det = Barracuda.Detector.create ~layout:w.W.layout plan in
  let published = run (Session.serial_sink det) in
  let st = Barracuda.Detector.stats det in
  Alcotest.(check int) "backprop's plan drops 36 records" 36
    st.Barracuda.Detector.planned_out;
  Alcotest.(check (list int))
    "serial: published records, checks, planned out = the detector's own"
    Barracuda.Detector.
      [ st.records_processed; st.accesses_checked; st.planned_out ]
    [ List.nth published 0; List.nth published 1; List.nth published 5 ];
  let engine = Shard.Engine.create ~layout:w.W.layout ~shards:3 plan in
  let published = run (Shard.Stream.sink_of_engine engine) in
  let own field =
    Array.fold_left
      (fun acc d -> acc + field (Barracuda.Detector.stats d))
      0
      (Shard.Engine.detectors engine)
  in
  let checks = own (fun s -> s.Barracuda.Detector.accesses_checked) in
  Alcotest.(check bool) "the shards checked something" true (checks > 0);
  Alcotest.(check int) "3 shards: published checks = the detectors' own"
    checks (List.nth published 1);
  let planned_out = own (fun s -> s.Barracuda.Detector.planned_out) in
  Alcotest.(check int) "3 shards: each skips every planned record" (3 * 36)
    planned_out;
  Alcotest.(check int) "3 shards: published planned out = the detectors' own"
    planned_out (List.nth published 5)

let test_session_rollups () =
  with_telemetry (fun () ->
      let w = Workloads.Registry.find "backprop" in
      let layout = w.W.layout in
      let session = Session.create ~layout () in
      let args = w.W.setup (Session.machine session) in
      ignore (Session.launch session w.W.kernel args);
      let args = w.W.setup (Session.machine session) in
      ignore (Session.launch session w.W.kernel args);
      let rollups = Session.rollups session in
      Alcotest.(check int) "one rollup per launch" 2 (List.length rollups);
      List.iter
        (fun (r : Session.rollup) ->
          Alcotest.(check string) "rollup names the kernel"
            w.W.kernel.Ptx.Ast.kname r.Session.r_kernel;
          Alcotest.(check bool) "rollup shipped records" true
            (r.Session.r_records > 0);
          Alcotest.(check bool) "monotonic duration positive" true
            (r.Session.r_ns > 0L))
        rollups;
      Alcotest.(check int) "session launch counter" 2
        (Telemetry.Registry.find_counter Telemetry.Registry.default
           "barracuda_session_launches_total"))

(* [barracuda profile]'s table over its own run of
   examples/stencil_race.ptx: every stage and nested span ran, a nested
   span prints under its stage and within its time, and the
   unattributed row closes the stages' sum to 100% of wall. *)
let test_profile_rows_sum () =
  with_telemetry (fun () ->
      let kernel = Ptx.Parser.kernel_of_string Example_ptx.stencil_race in
      let machine = Simt.Machine.create ~layout:Service.Exec.default_layout () in
      let args = Service.Exec.resolve_args machine kernel [] in
      let t0 = Telemetry.Clock.now_ns () in
      let inst =
        Instrument.Pass.instrument ~layout:Service.Exec.default_layout kernel
      in
      ignore (Session.run_stream ~inst ~machine kernel args);
      let rows =
        Telemetry.Span.breakdown ~stages:Session.profile_stages
          ~wall_ns:(Telemetry.Clock.elapsed_ns ~since:t0)
          (Telemetry.Span.totals ())
      in
      let open Telemetry.Span in
      Alcotest.(check (list (pair string bool)))
        "rows, nested under their stage"
        [
          ("instrument", false); ("static.analyze", true); ("execute", false);
          ("detect", false); ("detector.feed_record", true);
          ("unattributed", false);
        ]
        (List.map (fun r -> (r.stage, r.nested)) rows);
      let row name = List.find (fun r -> r.stage = name) rows in
      List.iter
        (fun (stage, inner) ->
          Alcotest.(check bool) (stage ^ " ran") true ((row stage).calls > 0);
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "%s ran within %s" name stage)
                true
                ((row name).calls > 0 && (row name).ns <= (row stage).ns))
            inner)
        Session.profile_stages;
      Alcotest.(check bool) "unattributed time is not negative" true
        ((row "unattributed").ns >= 0L);
      Alcotest.(check (float 0.1)) "top-level shares sum to wall" 100.0
        (List.fold_left
           (fun acc r -> if r.nested then acc else acc +. r.share)
           0.0 rows))

let suite =
  [
    Alcotest.test_case "counter/gauge semantics" `Quick test_counter_gauge;
    Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
    Alcotest.test_case "label sets are distinct metrics" `Quick
      test_labels_distinct;
    Alcotest.test_case "JSON export round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON parser corners" `Quick test_json_parser;
    Alcotest.test_case "JSON nesting is bounded" `Quick test_json_depth_bound;
    Alcotest.test_case "JSON codec both directions" `Quick test_json_codec;
    Alcotest.test_case "Prometheus exposition format" `Quick test_prometheus;
    Alcotest.test_case "hooks match queue_stats" `Quick
      test_hooks_match_queue_stats;
    Alcotest.test_case "five stage spans exported" `Quick
      test_stage_spans_in_json;
    Alcotest.test_case "verdicts unchanged by telemetry" `Quick
      test_verdicts_unchanged;
    Alcotest.test_case "session rollups" `Quick test_session_rollups;
    Alcotest.test_case "detector counters on the word path" `Quick
      test_word_path_counters;
    Alcotest.test_case "published counters equal the detector's own" `Quick
      test_published_counters;
    Alcotest.test_case "profile rows add up to wall" `Quick
      test_profile_rows_sum;
  ]
