(* Instrumentation pass: logging coverage, pruning, predicated
   rewrites, TID preamble, and semantic preservation. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Pass = Instrument.Pass
module Stats = Instrument.Stats

let parse = Ptx.Parser.kernel_of_string
let layout = Service.Exec.default_layout

let test_tid_preamble () =
  let k = parse ".entry k (.param .u64 a) { ret; }" in
  let r = Pass.instrument ~layout k in
  match r.Pass.kernel.Ast.body.(0).Ast.kind with
  | Ast.Mad { dst = "%lgtid"; _ } -> ()
  | _ -> Alcotest.fail "missing TID computation preamble"

let test_logging_coverage () =
  let k =
    parse
      {|.entry k (.param .u64 a) {
        ld.global.u32 %r1, [a];
        add.s64 %r2, %r1, 1;
        st.shared.u32 [a], %r2;
        atom.global.add.u32 %r3, [a], 1;
        membar.gl;
        bar.sync 0;
        ld.local.u32 %r4, [a];
        ret; }|}
  in
  let r = Pass.instrument ~layout k in
  let s = r.Pass.stats in
  Alcotest.(check int) "memory logged (ld+st+atom, not local)" 3
    s.Stats.mem_logged;
  Alcotest.(check int) "sync logged (fence+bar)" 2 s.Stats.sync_logged;
  Alcotest.(check bool) "local access unlogged" true
    (not r.Pass.logged.(6));
  Alcotest.(check bool) "arith unlogged" true (not r.Pass.logged.(1))

let test_fraction_below_one () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let r =
        Pass.instrument ~layout:w.Workloads.Workload.layout
          w.Workloads.Workload.kernel
      in
      let f = Stats.fraction r.Pass.stats in
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " fraction sane")
        true
        (f >= 0.0 && f <= 0.6))
    Workloads.Registry.all

let test_pruning_within_block () =
  let k =
    parse
      {|.entry k (.param .u64 a) {
        ld.global.u32 %r1, [a];
        ld.global.u32 %r2, [a];
        st.global.u32 [a], %r2;
        ret; }|}
  in
  let unopt = Pass.instrument ~prune:false ~static:false ~layout k in
  let opt = Pass.instrument ~layout k in
  Alcotest.(check int) "no pruning unopt" 0
    (Stats.pruned unopt.Pass.stats);
  (* the overlapping load/store pair is statically racy, so the static
     tier leaves it alone and block pruning does the work: the repeated
     load goes, the store stays (a logged load does not cover a write) *)
  Alcotest.(check int) "repeat load pruned" 1
    opt.Pass.stats.Stats.pruned_block;
  Alcotest.(check bool) "first access still logged" true opt.Pass.logged.(0);
  Alcotest.(check bool) "second access pruned" true (not opt.Pass.logged.(1));
  Alcotest.(check bool) "store after loads still logged" true
    opt.Pass.logged.(2);
  let k =
    parse
      {|.entry k (.param .u64 a) {
        st.global.u32 [a], 1;
        st.global.u32 [a], 2;
        ret; }|}
  in
  let opt = Pass.instrument ~static:false ~layout k in
  Alcotest.(check int) "repeat store pruned" 1
    opt.Pass.stats.Stats.pruned_block;
  Alcotest.(check bool) "second store pruned" true (not opt.Pass.logged.(1))

let test_pruning_killed_by_redefinition () =
  let k =
    parse
      {|.entry k (.param .u64 a) {
        ld.global.u32 %r1, [%rd1];
        add.s64 %rd1, %rd1, 4;
        ld.global.u32 %r2, [%rd1];
        ret; }|}
  in
  let opt = Pass.instrument ~static:false ~layout k in
  Alcotest.(check int) "address register redefined: no pruning" 0
    (Stats.pruned opt.Pass.stats);
  (* with the static tier on, the two loads are provably safe (the
     kernel has no stores at all) and lose their logging that way *)
  let stat = Pass.instrument ~layout k in
  Alcotest.(check int) "read-only kernel statically pruned" 2
    stat.Pass.stats.Stats.pruned_static

let test_pruning_stops_at_fence () =
  let k =
    parse
      {|.entry k (.param .u64 a) {
        st.global.u32 [a], 1;
        membar.gl;
        st.global.u32 [a], 2;
        ret; }|}
  in
  let opt = Pass.instrument ~layout k in
  Alcotest.(check int) "fence resets the window" 0
    (Stats.pruned opt.Pass.stats)

let test_pruning_stops_at_block_boundary () =
  let k =
    parse
      {|.entry k (.param .u64 a) {
        ld.global.u32 %r1, [a];
        bra.uni L;
L:      ld.global.u32 %r2, [a];
        ret; }|}
  in
  let opt = Pass.instrument ~static:false ~layout k in
  Alcotest.(check int) "different basic block: no pruning" 0
    (Stats.pruned opt.Pass.stats)

let test_predicated_rewrite () =
  let k =
    parse ".entry k (.param .u64 a) { @%p1 st.global.u32 [a], 1; ret; }"
  in
  let r = Pass.instrument ~layout k in
  Alcotest.(check int) "predicated access rewritten" 1
    r.Pass.stats.Stats.predicated_rewritten;
  (* the rewritten store is unpredicated and reachable only under the
     original guard; the kernel must still be well-formed *)
  Ptx.Validate.check_exn r.Pass.kernel;
  let has_unguarded_store =
    Array.exists
      (fun i ->
        match i.Ast.kind with
        | Ast.St _ -> i.Ast.guard = None
        | _ -> false)
      r.Pass.kernel.Ast.body
  in
  Alcotest.(check bool) "store unpredicated after rewrite" true
    has_unguarded_store

let test_convergence_points_logged () =
  let b = B.create ~params:[ "a" ] "conv" in
  B.if_else b Ast.C_eq (Ast.Sreg Ast.Tid) (B.imm 0)
    (fun b -> B.mov b (B.fresh_reg b) (B.imm 1))
    (fun b -> B.mov b (B.fresh_reg b) (B.imm 2));
  B.mov b (B.fresh_reg b) (B.imm 3);
  let k = B.finish b in
  let r = Pass.instrument ~layout k in
  Alcotest.(check bool) "convergence point logged" true
    (r.Pass.stats.Stats.convergence_logged >= 1)

let test_origin_mapping () =
  let k =
    parse
      ".entry k (.param .u64 a) { ld.global.u32 %r1, [a]; st.global.u32 [a], %r1; ret; }"
  in
  let r = Pass.instrument ~layout k in
  (* every original instruction appears exactly once in origin *)
  let counts = Array.make (Array.length k.Ast.body) 0 in
  Array.iter
    (fun o -> if o >= 0 then counts.(o) <- counts.(o) + 1)
    r.Pass.origin;
  Alcotest.(check bool) "each original instruction kept once" true
    (Array.for_all (Int.equal 1) counts)

let prop_instrumented_kernels_still_valid =
  QCheck2.Test.make ~name:"instrumented kernels remain well-formed" ~count:150
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      Ptx.Validate.check (Pass.instrument ~layout:Gen.layout k).Pass.kernel = [])

let prop_instrumented_execution_equivalent =
  QCheck2.Test.make
    ~name:
      "instrumented race-free kernels compute the same memory state"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      (* racy programs have schedule-dependent results and
         instrumentation perturbs the schedule: restrict to race-free *)
      (let md = Simt.Machine.create ~layout:Gen.layout () in
       let argsd = Gen.setup md in
       let r = Gpu_runtime.Session.run_stream ~machine:md k argsd in
       if Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report then
         QCheck2.assume_fail ());
      let inst = (Pass.instrument ~layout:Gen.layout k).Pass.kernel in
      let m1 = Simt.Machine.create ~layout:Gen.layout () in
      let args1 = Gen.setup m1 in
      let _ = Simt.Machine.launch m1 k args1 in
      let m2 = Simt.Machine.create ~layout:Gen.layout () in
      let args2 = Gen.setup m2 in
      let _ = Simt.Machine.launch m2 inst args2 in
      (* compare the deterministic words (sync locations are exempt
         from race checking and may differ) *)
      let ok = ref true in
      List.iter
        (fun w ->
          let v1 =
            Simt.Machine.peek m1 ~addr:(Int64.to_int args1.(0) + (4 * w)) ~width:4
          in
          let v2 =
            Simt.Machine.peek m2 ~addr:(Int64.to_int args2.(0) + (4 * w)) ~width:4
          in
          if v1 <> v2 then ok := false)
        (Gen.comparable_word_offsets ());
      !ok)

let suite =
  [
    Alcotest.test_case "tid preamble" `Quick test_tid_preamble;
    Alcotest.test_case "logging coverage" `Quick test_logging_coverage;
    Alcotest.test_case "fractions sane on workloads" `Quick
      test_fraction_below_one;
    Alcotest.test_case "pruning within block" `Quick test_pruning_within_block;
    Alcotest.test_case "pruning killed by redefinition" `Quick
      test_pruning_killed_by_redefinition;
    Alcotest.test_case "pruning stops at fences" `Quick test_pruning_stops_at_fence;
    Alcotest.test_case "pruning stops at block boundary" `Quick
      test_pruning_stops_at_block_boundary;
    Alcotest.test_case "predicated rewrite" `Quick test_predicated_rewrite;
    Alcotest.test_case "convergence points logged" `Quick
      test_convergence_points_logged;
    Alcotest.test_case "origin mapping" `Quick test_origin_mapping;
  ]
  @ List.map Gen.to_alcotest
      [
        prop_instrumented_kernels_still_valid;
        prop_instrumented_execution_equivalent;
      ]
