(* The sharded detection engine (lib/shard): broadcast-everything
   transport with partitioned shadow checks.  The load-bearing claim is
   bitwise verdict parity — for every bug-suite case and every shard
   count, the merged sharded report must list exactly the races the
   serial detector lists, which in turn must agree with the reference
   semantics. *)

module Session = Gpu_runtime.Session
module Report = Barracuda.Report

let shard_counts = [ 1; 2; 4; 7 ]

(* ---- race-set extraction (as in test_detector) ------------------- *)

type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Report.access_kind;
  cur_tid : int;
  cur_kind : Report.access_kind;
}

let race_set report =
  Report.errors report
  |> List.filter_map (function
       | Report.Race r ->
           Some
             {
               loc = r.Report.loc;
               prev_tid = r.Report.prev_tid;
               prev_kind = r.Report.prev_kind;
               cur_tid = r.Report.cur_tid;
               cur_kind = r.Report.cur_kind;
             }
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

(* Barrier divergences carry no thread pair and do not depend on the
   interleaving: every build must name the same warps and the same
   original instruction. *)
let divergences report =
  Report.errors report
  |> List.filter_map (function
       | Report.Barrier_divergence { warp; insn } -> Some (warp, insn)
       | Report.Race _ -> None)
  |> List.sort_uniq Stdlib.compare

(* The logging code an instrumented build adds shifts how warps
   interleave, so a race can be observed in the other order; compare
   builds on the unordered pair of racing accesses. *)
let racing_pairs races =
  List.map
    (fun k ->
      let a = (k.prev_tid, k.prev_kind) and b = (k.cur_tid, k.cur_kind) in
      (k.loc, min a b, max a b))
    races
  |> List.sort_uniq Stdlib.compare

(* Parity must hold on the full stream with no report cap in the way:
   a shard hitting [max_reports] would under-report legitimately. *)
let detector_config =
  { Barracuda.Detector.default_config with max_reports = 100000 }

(* [check] and [check --shards N]: the same session-core run, with
   the serial or the sharded sink.  [inst] runs an instrumented build
   of the case's kernel, as the daemon and [profile] do. *)
let run ?sink ?fault ?inst (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  Session.run_stream ~detector:detector_config ?sink ?fault ?inst ~machine:m
    c.Bugsuite.Case.kernel args

let serial_report ?inst c = (run ?inst c).Session.sr_report

let sharded_report ?fault ?inst ~shards (c : Bugsuite.Case.t) =
  let sink =
    Shard.Stream.sink ?fault ~config:detector_config
      ~layout:c.Bugsuite.Case.layout ~shards c.Bugsuite.Case.kernel
  in
  (run ~sink ?fault ?inst c).Session.sr_report

let reference_racy (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let ops, _ =
    Gtrace.Infer.run ~layout:c.Bugsuite.Case.layout m c.Bugsuite.Case.kernel
      args
  in
  let d =
    Barracuda.Reference.create ~max_reports:100000
      ~layout:c.Bugsuite.Case.layout ()
  in
  Barracuda.Reference.run d ops;
  Report.has_race (Barracuda.Reference.report d)

(* ---- full-bugsuite parity at every shard count ------------------- *)

(* Every build of the kernel the system executes: uninstrumented (every
   verdict path: [check], the daemon, [stream], repair, the campaign),
   instrumented without block pruning, and the deployed block + static
   instrumentation of the logging-cost model ([profile], Figure 10,
   [Session.launch]). *)
let builds (c : Bugsuite.Case.t) =
  let kernel = c.Bugsuite.Case.kernel in
  let layout = c.Bugsuite.Case.layout in
  [
    ("uninstrumented", None);
    ( "instrumented",
      Some (Instrument.Pass.instrument ~prune:false ~layout kernel) );
    ("deployed", Some (Instrument.Pass.instrument ~layout kernel));
  ]

(* examples/barrier_divergence.ptx, as [barracuda check] runs it:
   warp 0 of each block reaches its [bar.sync] with lanes missing *)
let barrier_divergence_example =
  let kernel = Ptx.Parser.kernel_of_string Example_ptx.barrier_divergence in
  {
    Bugsuite.Case.id = 0;
    name = "examples/barrier_divergence.ptx";
    descr = "a shared store and bar.sync under tid < 16";
    layout = Service.Exec.default_layout;
    kernel;
    setup = (fun m -> Service.Exec.resolve_args m kernel []);
    verdict = Bugsuite.Case.Race_free;
    expect_bardiv = true;
  }

let test_bugsuite_parity () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let expected = reference_racy c in
      let name = c.Bugsuite.Case.name in
      let uninstrumented = serial_report c in
      let baseline = racing_pairs (race_set uninstrumented) in
      let baseline_divergences = divergences uninstrumented in
      if baseline_divergences <> [] <> c.Bugsuite.Case.expect_bardiv then
        Alcotest.failf "%s: barrier divergence %s" name
          (if c.Bugsuite.Case.expect_bardiv then "missed" else "invented");
      List.iter
        (fun (build, inst) ->
          let serial = serial_report ?inst c in
          let serial_races = race_set serial in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s): serial check matches reference" name
               build)
            expected (Report.has_race serial);
          if racing_pairs serial_races <> baseline then
            Alcotest.failf "%s (%s): racing pairs differ from uninstrumented"
              name build;
          if divergences serial <> baseline_divergences then
            Alcotest.failf
              "%s (%s): barrier divergences differ from uninstrumented" name
              build;
          List.iter
            (fun shards ->
              let merged = sharded_report ?inst ~shards c in
              Alcotest.(check bool)
                (Printf.sprintf "%s (%s) @ %d shards: verdict matches reference"
                   name build shards)
                expected (Report.has_race merged);
              if race_set merged <> serial_races then
                Alcotest.failf
                  "%s (%s) @ %d shards: race set differs from serial" name
                  build shards;
              if divergences merged <> baseline_divergences then
                Alcotest.failf
                  "%s (%s) @ %d shards: barrier divergences differ" name build
                  shards)
            shard_counts)
        (builds c))
    (barrier_divergence_example :: Bugsuite.Cases.all)

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
        Session.run_stream ~detector:detector_config ~sink ~machine:m kernel
          args
      in
      let plan = Static.Plan.of_kernel kernel in
      let plan, name =
        if every_access then (Static.Plan.empty plan, name ^ " (every access)")
        else (plan, name)
      in
      let det = Barracuda.Detector.create ~config:detector_config ~layout plan in
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
            Shard.Engine.create ~config:detector_config ~layout ~shards plan
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
  let errors () = Report.errors (sharded_report ~shards:4 c) in
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
    Alcotest.test_case "bugsuite parity at 1/2/4/7 shards" `Quick
      test_bugsuite_parity;
    Alcotest.test_case "broadcast delivers exactly once per shard" `Quick
      test_broadcast_delivery;
    Alcotest.test_case "merge is deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "shard crash fails the job loudly" `Quick
      test_shard_crash_is_loud;
    Gen.to_alcotest prop_router_partition;
    Gen.to_alcotest prop_router_range_locality;
  ]
