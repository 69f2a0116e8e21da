(* The sharded detection engine (lib/shard): broadcast-everything
   transport with partitioned shadow checks.  Here: the router
   partitions, every shard consumes the whole stream exactly once, the
   merge is deterministic and a dead shard fails the job.  That the
   merged report at every shard count lists [check]'s races is
   test_equiv's obligation. *)

module Session = Gpu_runtime.Session
module Report = Barracuda.Report

(* ---- the router is a true partition ------------------------------ *)

let gen_cell =
  QCheck2.Gen.(
    let* shards = int_range 1 16 in
    let* range_log2 = int_range 0 12 in
    let* space =
      oneofl [ Ptx.Ast.Global; Ptx.Ast.Shared; Ptx.Ast.Local; Ptx.Ast.Param ]
    in
    let* region = int_range 0 64 in
    let* index = int_range 0 (1 lsl 20) in
    return (shards, range_log2, space, region, index))

let prop_router_partition =
  QCheck2.Test.make ~name:"every shadow cell has exactly one owner"
    ~count:2000
    ~print:(fun (shards, rl, _, region, index) ->
      Printf.sprintf "shards=%d range_log2=%d region=%d index=%d" shards rl
        region index)
    gen_cell
    (fun (shards, range_log2, space, region, index) ->
      let router = Shard.Router.make ~range_log2 ~shards () in
      let owner = Shard.Router.owner router ~space ~region ~index in
      let owners =
        List.init shards (fun s ->
            if Shard.Router.owns router ~shard:s space region index then [ s ]
            else [])
        |> List.concat
      in
      owner >= 0 && owner < shards && owners = [ owner ])

let prop_router_range_locality =
  QCheck2.Test.make
    ~name:"cells within one range land on the same shard" ~count:500
    ~print:(fun (shards, rl, _, region, index) ->
      Printf.sprintf "shards=%d range_log2=%d region=%d index=%d" shards rl
        region index)
    gen_cell
    (fun (shards, range_log2, space, region, index) ->
      let router = Shard.Router.make ~range_log2 ~shards () in
      let range = 1 lsl range_log2 in
      let base = index land lnot (range - 1) in
      let o = Shard.Router.owner router ~space ~region ~index:base in
      List.for_all
        (fun d ->
          Shard.Router.owner router ~space ~region ~index:(base + d) = o)
        (List.filter (fun d -> d < range) [ 0; 1; range - 1 ]))

(* ---- exactly-once broadcast, partitioned checks ------------------ *)

(* Every shard consumes the whole stream, but checks only the shadow
   cells its router assigns it: per-shard [accesses_checked] and
   [shadow_cells] sum to the serial detector's.  threadfencered's
   acquires and releases touch no shadow cell.  dxtc (uninstrumented,
   as [check --shards] runs it) pins the serial counts, one check and
   one cell per aligned word, and a ceiling on the busiest of 8
   shards, with every access checked (the empty plan) and under its
   check plan (the accesses the plan drops add no check but share
   their words' cells). *)
let test_broadcast_delivery () =
  List.iter
    (fun (name, every_access, pinned) ->
      let w = Workloads.Registry.find name in
      let kernel = w.Workloads.Workload.kernel in
      let layout = w.Workloads.Workload.layout in
      let run sink =
        let m = Workloads.Workload.machine w in
        let args = w.Workloads.Workload.setup m in
        Session.run_stream ~detector:Gen.detector_config ~sink ~machine:m
          kernel args
      in
      let plan = Static.Plan.of_kernel kernel in
      let plan, name =
        if every_access then (Static.Plan.empty plan, name ^ " (every access)")
        else (plan, name)
      in
      let det =
        Barracuda.Detector.create ~config:Gen.detector_config ~layout plan
      in
      ignore (run (Session.serial_sink det));
      let serial = Barracuda.Detector.stats det in
      Option.iter
        (fun (checked, cells, _) ->
          Alcotest.(check (pair int int))
            (name ^ ": serial accesses checked and shadow cells")
            (checked, cells)
            ( serial.Barracuda.Detector.accesses_checked,
              serial.Barracuda.Detector.shadow_cells ))
        pinned;
      List.iter
        (fun shards ->
          let label what = Printf.sprintf "%s @ %d shards: %s" name shards what in
          let engine =
            Shard.Engine.create ~config:Gen.detector_config ~layout ~shards
              plan
          in
          let r = run (Shard.Stream.sink_of_engine engine) in
          let stream = Shard.Engine.records engine in
          Alcotest.(check int)
            (label "the session counts the broadcast stream once")
            stream r.Session.sr_records;
          let stats =
            Array.map Barracuda.Detector.stats (Shard.Engine.detectors engine)
          in
          Array.iteri
            (fun i s ->
              Alcotest.(check int)
                (label (Printf.sprintf "shard %d consumed the full stream" i))
                stream s.Barracuda.Detector.records_processed)
            stats;
          let checked =
            Array.map (fun s -> s.Barracuda.Detector.accesses_checked) stats
          in
          let cells = Array.map (fun s -> s.Barracuda.Detector.shadow_cells) stats in
          let sum = Array.fold_left ( + ) 0 in
          Alcotest.(check int) (label "checks partition the serial checks")
            serial.Barracuda.Detector.accesses_checked (sum checked);
          Alcotest.(check int) (label "cells partition the serial cells")
            serial.Barracuda.Detector.shadow_cells (sum cells);
          (match pinned with
          | Some (_, _, busiest) when shards = 8 ->
              let most = Array.fold_left max 0 checked in
              Alcotest.(check bool)
                (label (Printf.sprintf "busiest shard checks %d <= %d" most busiest))
                true (most <= busiest)
          | _ -> ());
          let integ = Report.integrity r.Session.sr_report in
          Alcotest.(check bool)
            (label "no integrity anomalies on any shard") true
            (integ.Report.corrupt = 0 && integ.Report.gaps = 0
            && integ.Report.stale = 0 && integ.Report.desync = 0);
          Alcotest.(check bool) (label "verdict not degraded") false
            (Report.degraded r.Session.sr_report))
        [ 1; 2; 4; 8 ])
    [
      ("backprop", false, None);
      ("threadfencered", false, None);
      ("dxtc", true, Some (1278, 514, 320));
      ("dxtc", false, Some (1022, 514, 272));
    ]

(* ---- merged reports are deterministic ---------------------------- *)

let test_merge_deterministic () =
  let c =
    List.find
      (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.verdict = Bugsuite.Case.Racy)
      Bugsuite.Cases.all
  in
  let errors () =
    let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
    let args = c.Bugsuite.Case.setup m in
    let sink =
      Shard.Stream.sink ~config:Gen.detector_config
        ~layout:c.Bugsuite.Case.layout ~shards:4 c.Bugsuite.Case.kernel
    in
    Report.errors
      (Session.run_stream ~detector:Gen.detector_config ~sink ~machine:m
         c.Bugsuite.Case.kernel args)
        .Session.sr_report
  in
  let a = errors () and b = errors () in
  Alcotest.(check bool) "identical error lists across runs" true (a = b)

(* ---- a doomed shard fails the job loudly ------------------------- *)

let test_shard_crash_is_loud () =
  let w = Workloads.Registry.find "backprop" in
  let m = Workloads.Workload.machine w in
  let args = w.Workloads.Workload.setup m in
  let kernel = w.Workloads.Workload.kernel in
  let plan =
    Fault.Plan.make
      {
        Fault.Plan.none with
        Fault.Plan.seed = 7;
        shard_crash_shards = [ 1 ];
        shard_crash_after = 3;
      }
  in
  let sink =
    Shard.Stream.sink ~fault:plan ~layout:w.Workloads.Workload.layout ~shards:3
      kernel
  in
  match Session.run_stream ~sink ~fault:plan ~machine:m kernel args with
  | _ -> Alcotest.fail "sharded run completed despite a dead shard"
  | exception Shard.Engine.Shard_crashed i ->
      Alcotest.(check int) "the doomed shard is named" 1 i;
      Alcotest.(check int) "the injection was accounted" 1
        (Fault.Plan.injected plan).Fault.Plan.shard_crashes

let suite =
  [
    Alcotest.test_case "broadcast delivers exactly once per shard" `Quick
      test_broadcast_delivery;
    Alcotest.test_case "merge is deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "shard crash fails the job loudly" `Quick
      test_shard_crash_is_loud;
    Gen.to_alcotest prop_router_partition;
    Gen.to_alcotest prop_router_range_locality;
  ]
