(* The benchmark executable: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir D]
       [--barracuda EXE]

   Prints progress on stderr and, as the last line of stdout, one JSON
   object: correct / attempted / failed and the metrics — the
   end-to-end metrics untraced, the per-layer metrics traced. *)

(* [exe] is the barracuda CLI, which daemon-fleet runs as its daemon. *)
let workloads ~exe =
  [
    ("check-corpus", Corpus.run);
    ("replay-table1", Replay_table1.run);
    ("daemon-fleet", Daemon_fleet.run ~exe);
  ]

(* Per-layer self time per operation, ms: one span name each.  The
   root span ("op") keeps the residual no layer accounts for. *)
let layer_spans =
  [
    "parse";
    "execute";
    "detect";
    "load";
    "open";
    "reassemble";
    "checkpoint";
    "close";
    "queue_wait";
    "worker_run";
    "protocol";
  ]

(* The detector's own counters (read with telemetry on, traced runs). *)
let counter name =
  float_of_int
    (Telemetry.Registry.find_counter Telemetry.Registry.default name)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit

(* Times are stated at reference speed as they were measured, slice by
   slice (Harness.measure) and set-up by set-up (Harness.repeat_setup). *)
let end_to_end (h : Harness.t) =
  let over_slices f = Harness.median (List.map f h.slices) in
  [
    ("throughput_ops_s", over_slices (fun s -> s.Harness.rate), "1/s");
    ("latency_p50_ms", over_slices (fun s -> s.Harness.p50_ms), "ms");
    ("latency_p90_ms", over_slices (fun s -> s.Harness.p90_ms), "ms");
    ("setup_s", Harness.median h.setups, "s");
  ]

let per_layer (h : Harness.t) =
  let k = Harness.speed_factor h in
  let ops = float_of_int (max 1 h.attempted) in
  let per_op ns = k *. Int64.to_float ns /. 1e6 /. ops in
  let spans =
    List.map
      (fun name -> (name ^ "_ms", per_op (Span.self_ns name), "ms"))
      layer_spans
  in
  let records = counter "barracuda_detector_records_total" in
  let checks = counter "barracuda_detector_checks_total" in
  spans
  @ [ ("residual_ms", per_op (Span.self_ns "op"), "ms") ]
  @ [
      ("records_per_op", records /. ops, "count");
      ( "detect_ns_per_record",
        k *. Int64.to_float (Span.self_ns "detect") /. Float.max records 1.0,
        "ns" );
      ("detector_checks_per_op", checks /. ops, "count");
      ( "vc_full_scan_ratio",
        counter "barracuda_detector_vc_full_total" /. Float.max checks 1.0,
        "ratio" );
    ]

let result_line (h : Harness.t) =
  let metrics = if h.trace then per_layer h else end_to_end h in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (h.wrong = 0 && h.failed = 0 && h.attempted > 0)
    h.attempted h.failed
    (String.concat ", " (List.map metric metrics))

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then begin
    (* a fresh heap: the first loops pay for its growth *)
    for _ = 1 to 2 do
      ignore (Harness.calibration_loop ())
    done;
    let samples = List.init 3 (fun _ -> Harness.calibration_loop ()) in
    Printf.printf "%.6f\n" (Harness.median samples);
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and dir = ref "_perfbench" in
  let exe = ref (Filename.concat "_build" "default/bin/barracuda_cli.exe") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer tracing");
      ("--dir", Arg.Set_string dir, "D scratch directory");
      ("--barracuda", Arg.Set_string exe, "EXE the barracuda CLI");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workloads = workloads ~exe:!exe in
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some run ->
      let trace = !trace = 1 in
      let dir =
        Filename.concat !dir
          (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ()))
      in
      Harness.mkdir_p dir;
      let h = Harness.create ~seed:!seed ~seconds:!seconds ~trace ~dir in
      run h;
      (match h.first_problem with
      | Some msg -> Printf.eprintf "first problem: %s\n" msg
      | None -> ());
      Printf.eprintf
        "%s: %d operations in %.2f s, %d failed, %d wrong; speed factor \
         %.4f\n%!"
        !workload h.attempted h.window_s h.failed h.wrong
        (Harness.speed_factor h);
      print_endline (result_line h)
