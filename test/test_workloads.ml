(* Workload suite: each Table 1 benchmark must run to completion and
   report exactly its seeded race profile, uninstrumented as [check]
   runs it, and keep its verdict with the deployed instrumentation. *)

module W = Workloads.Workload

let check_workload (w : W.t) () =
  let r = W.run w in
  (match r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status with
  | Simt.Machine.Completed -> ()
  | Simt.Machine.Max_steps _ | Simt.Machine.Deadline _ ->
      Alcotest.fail "did not complete");
  let report = r.Gpu_runtime.Session.sr_report in
  let shared, global = W.racy_word_counts report in
  Alcotest.(check bool)
    (Format.asprintf "%s: expected %a, found %d shared / %d global"
       w.W.name W.pp_expected w.W.expected shared global)
    true
    (W.races_match w report)

let check_pipeline (w : W.t) () =
  let r = W.run ~inst:(Instrument.Pass.instrument ~layout:w.W.layout w.W.kernel) w in
  Alcotest.(check bool) "pipeline run completes" true
    (r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
    = Simt.Machine.Completed);
  (* the pipeline (with pruning) must at minimum preserve the verdict *)
  let report = r.Gpu_runtime.Session.sr_report in
  let has = Barracuda.Report.has_race report in
  let expected = w.W.expected <> W.Race_free in
  Alcotest.(check bool)
    (w.W.name ^ ": pipeline verdict")
    expected has

(* Every race-checkable lane access of the Table 1 workloads is a
   4-byte word at a 4-aligned address, so each is one check of a word
   summary: a quarter of the byte shadow's 251,384 checks.  Under each
   kernel's check plan, the accesses the static tier proves safe go
   unchecked. *)
let test_table1_checks () =
  let checks plan_of (w : W.t) =
    let m = W.machine w in
    let args = w.W.setup m in
    let det =
      Barracuda.Detector.create ~layout:w.W.layout
        (plan_of (Static.Plan.of_kernel w.W.kernel))
    in
    ignore
      (Gpu_runtime.Session.run_stream
         ~sink:(Gpu_runtime.Session.serial_sink det)
         ~machine:m w.W.kernel args);
    (Barracuda.Detector.stats det).Barracuda.Detector.accesses_checked
  in
  let total plan_of =
    List.fold_left (fun acc w -> acc + checks plan_of w) 0 Workloads.Registry.all
  in
  Alcotest.(check int) "Table 1 checks, one per aligned word" 62_846
    (total Static.Plan.empty);
  Alcotest.(check int) "Table 1 checks under the plans" 52_930 (total Fun.id)

let test_registry_size () =
  Alcotest.(check int) "26 workloads as in Table 1" 26
    (List.length Workloads.Registry.all)

let test_registry_find () =
  Alcotest.(check string) "find by name" "hashtable"
    (Workloads.Registry.find "hashtable").W.name;
  Alcotest.(check string) "find suite-qualified" "SHOC"
    (Workloads.Registry.find "SHOC/bfs").W.suite;
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Workloads.Registry.find "nonesuch"))

let test_block_scan_output () =
  (* device-wide chained scan: verify the actual prefix sums *)
  let w = Workloads.Registry.find "d_scan" in
  let m = W.machine w in
  let args = w.W.setup m in
  let result = Simt.Machine.launch m w.W.kernel args in
  Alcotest.(check bool) "scan completes" true
    (result.Simt.Machine.status = Simt.Machine.Completed);
  let input_base = Int64.to_int args.(0) in
  let output_base = Int64.to_int args.(1) in
  let n = W.total_threads w in
  let acc = ref 0L in
  for i = 0 to n - 1 do
    let v = Simt.Machine.peek m ~addr:(input_base + (4 * i)) ~width:4 in
    acc := Int64.add !acc v;
    let got = Simt.Machine.peek m ~addr:(output_base + (4 * i)) ~width:4 in
    Alcotest.(check int64) (Printf.sprintf "prefix[%d]" i) !acc got
  done

let test_block_radix_sort_output () =
  let w = Workloads.Registry.find "block_radix_sort" in
  let m = W.machine w in
  let args = w.W.setup m in
  let _ = Simt.Machine.launch m w.W.kernel args in
  let out = Int64.to_int args.(1) in
  let prev = ref Int64.min_int in
  for i = 0 to 127 do
    let v = Simt.Machine.peek m ~addr:(out + (4 * i)) ~width:4 in
    Alcotest.(check bool) (Printf.sprintf "sorted at %d" i) true (v >= !prev);
    prev := v
  done

let test_device_reduce_output () =
  let w = Workloads.Registry.find "d_reduce" in
  let m = W.machine w in
  let args = w.W.setup m in
  let _ = Simt.Machine.launch m w.W.kernel args in
  let input = Int64.to_int args.(0) in
  let out = Int64.to_int args.(3) in
  let expect = ref 0L in
  for i = 0 to W.total_threads w - 1 do
    expect :=
      Int64.add !expect (Simt.Machine.peek m ~addr:(input + (4 * i)) ~width:4)
  done;
  Alcotest.(check int64) "grid total" !expect
    (Simt.Machine.peek m ~addr:out ~width:4)

let test_hotspot_output () =
  let w = Workloads.Registry.find "hotspot" in
  let m = W.machine w in
  let args = w.W.setup m in
  let _ = Simt.Machine.launch m w.W.kernel args in
  (* spot check an interior cell: out = (left + right + power) / 2 *)
  let t_in = Int64.to_int args.(0)
  and power = Int64.to_int args.(1)
  and t_out = Int64.to_int args.(2) in
  let read b i = Simt.Machine.peek m ~addr:(b + (4 * i)) ~width:4 in
  let expect =
    Int64.div (Int64.add (Int64.add (read t_in 4) (read t_in 6)) (read power 5)) 2L
  in
  Alcotest.(check int64) "stencil cell 5" expect (read t_out 5)

let suite =
  [
    Alcotest.test_case "registry has 26 entries" `Quick test_registry_size;
    Alcotest.test_case "registry lookup" `Quick test_registry_find;
    Alcotest.test_case "Table 1 shadow checks" `Quick test_table1_checks;
    Alcotest.test_case "d_scan computes prefix sums" `Quick test_block_scan_output;
    Alcotest.test_case "block_radix_sort sorts" `Quick test_block_radix_sort_output;
    Alcotest.test_case "d_reduce totals" `Quick test_device_reduce_output;
    Alcotest.test_case "hotspot stencil" `Quick test_hotspot_output;
  ]
  @ List.map
      (fun (w : W.t) ->
        Alcotest.test_case
          (Printf.sprintf "races: %s/%s" w.W.suite w.W.name)
          `Quick (check_workload w))
      Workloads.Registry.all
  @ List.map
      (fun (w : W.t) ->
        Alcotest.test_case
          (Printf.sprintf "pipeline: %s/%s" w.W.suite w.W.name)
          `Quick (check_pipeline w))
      Workloads.Registry.all
