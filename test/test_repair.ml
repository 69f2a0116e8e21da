(* The automated repair engine (lib/repair): diagnosis, candidate
   search, and the validation gauntlet.  The load-bearing claims:

   - repair is a no-op on race-free kernels, and a fixed point — the
     kernel a fix produces diagnoses clean, so re-repairing it is a
     no-op too;
   - an accepted fix really is race-free under the unchanged detector,
     serial and sharded, and survives a lossy-transport fault slice;
   - the whole search is deterministic for a fixed seed;
   - the bug-suite scoreboard meets the paper target: at least 20 racy
     cases auto-fixed, none unfixable. *)

module Engine = Repair.Engine
module Report = Barracuda.Report

let quick_config =
  { Engine.default_config with Engine.max_steps = 200_000 }

let case_named name =
  match
    List.find_opt (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.name = name)
      Bugsuite.Cases.all
  with
  | Some c -> c
  | None -> Alcotest.failf "bug-suite case %s disappeared" name

let repair_case ?(config = quick_config) (c : Bugsuite.Case.t) =
  Engine.repair ~config ~layout:c.Bugsuite.Case.layout
    ~setup:c.Bugsuite.Case.setup c.Bugsuite.Case.kernel

let fix_of name r =
  match r.Engine.verdict with
  | Engine.Fixed f -> f
  | v ->
      Alcotest.failf "%s: expected a fix, got %s" name (Engine.verdict_name v)

(* ---- no-op on race-free input ------------------------------------ *)

let clean_src =
  {|
.visible .entry each_own_slot (.param .u64 out)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rd1, %rdt, 4, out;
    st.global.u32 [%rd1], %rdt;
    ld.global.u32 %r1, [%rd1];
    ret;
}
|}

let test_clean_noop () =
  let kernel = Ptx.Parser.kernel_of_string clean_src in
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2 in
  let setup m = [| Int64.of_int (Simt.Machine.alloc_global m 4096) |] in
  let r = Engine.repair ~config:quick_config ~layout ~setup kernel in
  Alcotest.(check string)
    "verdict" "already-clean"
    (Engine.verdict_name r.Engine.verdict);
  Alcotest.(check int) "no candidates tried" 0 r.Engine.candidates_tried

(* ---- fixed point: repair(repair k) = no-op ----------------------- *)

let test_repair_fixed_point () =
  let c = case_named "ww_shared_inter_warp" in
  let r = repair_case c in
  let f = fix_of c.Bugsuite.Case.name r in
  let r2 =
    Engine.repair ~config:quick_config ~layout:c.Bugsuite.Case.layout
      ~setup:c.Bugsuite.Case.setup f.Engine.kernel
  in
  Alcotest.(check string)
    "repaired kernel re-repairs to a no-op" "already-clean"
    (Engine.verdict_name r2.Engine.verdict)

(* ---- the accepted fix stays clean off the validation path -------- *)

let test_repaired_clean_sharded_and_faulty () =
  let c = case_named "rw_shared_inter_warp" in
  let f = fix_of c.Bugsuite.Case.name (repair_case c) in
  (* 4 shards — validation itself only ran 2 *)
  let layout = c.Bugsuite.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = c.Bugsuite.Case.setup machine in
  let sresult =
    Gpu_runtime.Session.run_stream
      ~sink:(Shard.Stream.sink ~layout ~shards:4 f.Engine.kernel)
      ~max_steps:200_000 ~machine f.Engine.kernel args
  in
  Alcotest.(check bool)
    "no race under 4 shards" false
    (Report.has_race sresult.Gpu_runtime.Session.sr_report);
  (* a fault slice at seeds validation never used *)
  for i = 0 to 2 do
    let plan =
      Fault.Plan.make
        {
          Fault.Plan.none with
          Fault.Plan.seed = 1000 + i;
          drop = 0.02;
          duplicate = 0.03;
        }
    in
    let machine = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
    let args = c.Bugsuite.Case.setup machine in
    let result =
      Gpu_runtime.Session.run_stream ~fault:plan ~max_steps:200_000 ~machine
        f.Engine.kernel args
    in
    let report = result.Gpu_runtime.Session.sr_report in
    if Report.has_race report && not (Report.degraded report) then
      Alcotest.failf "fault seed %d: undegraded race on the repaired kernel"
        (1000 + i)
  done

(* ---- determinism ------------------------------------------------- *)

let test_repair_deterministic () =
  let c = case_named "lock_cta_fence_cross_block" in
  let r1 = repair_case c in
  let r2 = repair_case c in
  Alcotest.(check string)
    "same verdict"
    (Engine.verdict_name r1.Engine.verdict)
    (Engine.verdict_name r2.Engine.verdict);
  let f1 = fix_of c.Bugsuite.Case.name r1
  and f2 = fix_of c.Bugsuite.Case.name r2 in
  Alcotest.(check string)
    "same fix description" f1.Engine.description f2.Engine.description;
  Alcotest.(check string) "same printed patch" f1.Engine.ptx f2.Engine.ptx;
  Alcotest.(check int)
    "same search trail" r1.Engine.candidates_tried r2.Engine.candidates_tried;
  Alcotest.(check (list (pair string string)))
    "same rejections" r1.Engine.rejected r2.Engine.rejected

(* ---- insn ids in race reports (the diagnosis depends on them) ---- *)

let test_race_reports_carry_insn_ids () =
  let c = case_named "ww_shared_inter_warp" in
  let machine = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup machine in
  let r =
    Gpu_runtime.Session.run_stream ~machine c.Bugsuite.Case.kernel args
  in
  let races =
    List.filter_map
      (function Report.Race r -> Some r | Report.Barrier_divergence _ -> None)
      (Report.errors r.Gpu_runtime.Session.sr_report)
  in
  Alcotest.(check bool) "some race reported" true (races <> []);
  List.iter
    (fun (r : Report.race) ->
      let n = Array.length c.Bugsuite.Case.kernel.Ptx.Ast.body in
      if r.Report.cur_insn < 0 || r.Report.cur_insn >= n then
        Alcotest.failf "cur_insn %d out of range" r.Report.cur_insn;
      if r.Report.prev_insn < 0 || r.Report.prev_insn >= n then
        Alcotest.failf "prev_insn %d out of range" r.Report.prev_insn)
    races

(* ---- the scoreboard ---------------------------------------------- *)

let test_scoreboard () =
  let score = Bugsuite.Harness.run_repair ~config:quick_config Bugsuite.Cases.all in
  if score.Bugsuite.Harness.fixed < 20 then
    Alcotest.failf "only %d cases auto-fixed (target: at least 20)"
      score.Bugsuite.Harness.fixed;
  Alcotest.(check int) "no unfixable cases" 0 score.Bugsuite.Harness.unfixable;
  Alcotest.(check int)
    "every case accounted for"
    (List.length Bugsuite.Cases.all)
    (score.Bugsuite.Harness.fixed + score.Bugsuite.Harness.clean
    + score.Bugsuite.Harness.unfixable);
  (* no fix may introduce barrier divergence: every fixed case that did
     not already expect divergence runs divergence-free *)
  List.iter
    (fun (o : Bugsuite.Harness.repair_outcome) ->
      match o.Bugsuite.Harness.result.Engine.verdict with
      | Engine.Fixed f when not o.Bugsuite.Harness.case.Bugsuite.Case.expect_bardiv
        ->
          let c = o.Bugsuite.Harness.case in
          let machine = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
          let args = c.Bugsuite.Case.setup machine in
          let result =
            Gpu_runtime.Session.run_stream ~max_steps:200_000 ~machine
              f.Engine.kernel args
          in
          let report = result.Gpu_runtime.Session.sr_report in
          if
            result.Gpu_runtime.Session.sr_machine_result
              .Simt.Machine.barrier_divergence
            || List.exists
                 (function
                   | Report.Barrier_divergence _ -> true
                   | Report.Race _ -> false)
                 (Report.errors report)
          then
            Alcotest.failf "%s: accepted fix introduces barrier divergence"
              c.Bugsuite.Case.name
      | _ -> ())
    score.Bugsuite.Harness.repair_outcomes

(* ---- a run cut short is no diagnosis ---------------------------- *)

(* examples/repairable_race.ptx races (check reports 8 races), but not
   within 10 steps: a diagnosis its step budget stopped is no verdict,
   never "already race-free". *)
let test_stopped_run_not_clean () =
  let kernel = Ptx.Parser.kernel_of_string Example_ptx.repairable_race in
  match
    Engine.repair
      ~config:{ Engine.default_config with Engine.max_steps = 10 }
      ~layout:Service.Exec.default_layout
      ~setup:(fun m -> Service.Exec.resolve_args m kernel [])
      kernel
  with
  | r -> Alcotest.failf "answered %s" (Engine.verdict_name r.Engine.verdict)
  | exception Gpu_runtime.Session.Stopped steps ->
      Alcotest.(check int) "the budget that stopped it" 10 steps

let suite =
  [
    Alcotest.test_case "race-free kernel: repair is a no-op" `Quick
      test_clean_noop;
    Alcotest.test_case "repair is a fixed point" `Quick test_repair_fixed_point;
    Alcotest.test_case "repaired kernel clean under 4 shards + fault slice"
      `Quick test_repaired_clean_sharded_and_faulty;
    Alcotest.test_case "repair is deterministic" `Quick
      test_repair_deterministic;
    Alcotest.test_case "race reports carry static insn ids" `Quick
      test_race_reports_carry_insn_ids;
    Alcotest.test_case "bug-suite scoreboard: >=20 fixed, none unfixable"
      `Slow test_scoreboard;
    Alcotest.test_case "a stopped run is no diagnosis" `Quick
      test_stopped_run_not_clean;
  ]
