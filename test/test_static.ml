(* The static race analysis (lib/static): affine address
   classification, barrier phases, the three verdicts, the service's
   static answer and the check plan.  Its soundness — dropping the
   checks and the logging of every [Safe] access leaves the detected
   races unchanged, and a static racy answer is racy when executed —
   is test_equiv's obligation, on every shipped kernel. *)

module Session = Gpu_runtime.Session
module Report = Barracuda.Report
module A = Static.Analysis

(* ---- affine classification --------------------------------------- *)

let parse src = Ptx.Parser.kernel_of_string src

let vecadd_src =
  {|
.visible .entry vecadd (.param .u64 a, .param .u64 b)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rda, %rdt, 4, a;
    mad.lo.s64 %rdb, %rdt, 4, b;
    ld.global.u32 %r1, [%rda];
    ld.global.u32 %r2, [%rdb];
    add.s32 %r3, %r1, %r2;
    st.global.u32 [%rda], %r3;
    ret;
}
|}

(* [a] and [b] may be one buffer (a launch can pass one pointer
   twice), so the store to a[] and the load of b[] are left for
   dynamic checking; the load of a[] meets the store only in its own
   thread's slot. *)
let test_vecadd_aliasable_unknown () =
  let a = A.analyze (parse vecadd_src) in
  let safe, racy, unknown = A.counts a in
  Alcotest.(check (triple int int int)) "1 safe, 2 unknown" (1, 0, 2)
    (safe, racy, unknown);
  Alcotest.(check bool) "flat-gtid accesses are lane-affine" true
    (A.klass a 3 = A.Lane_affine);
  Alcotest.(check bool) "a[] load is disjoint" true
    (A.verdict a 3 = Some (A.Safe A.Disjoint_footprints));
  Alcotest.(check bool) "b[] load may alias the a[] store" true
    (A.verdict a 4 = Some A.Unknown);
  Alcotest.(check bool) "a[] store may alias the b[] load" true
    (A.verdict a 6 = Some A.Unknown);
  Alcotest.(check bool) "no racy pairs" true (A.pairs a = [])

(* Control flow must not defeat the affine dataflow: the same
   per-thread accesses behind a guarded bounds-check branch (three
   blocks) keep their disjointness proofs.  Regression test for the
   fixpoint seeding bug that pre-seeded the entry block's in state,
   never computed its out state, and so left every later block at
   Top. *)
let vecadd_branch_src =
  {|
.visible .entry vecadd_branch (.param .u64 a)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    setp.ge.s64 %p1, %rdt, 1024;
    @%p1 bra L_done;
    mad.lo.s64 %rda, %rdt, 4, a;
    ld.global.u32 %r1, [%rda];
    add.s32 %r2, %r1, 1;
    st.global.u32 [%rda], %r2;
L_done:
    ret;
}
|}

let test_branch_keeps_disjoint () =
  let a = A.analyze (parse vecadd_branch_src) in
  Alcotest.(check bool) "load past the branch is lane-affine" true
    (A.klass a 4 = A.Lane_affine);
  Alcotest.(check bool) "store past the branch is disjoint-safe" true
    (A.verdict a 6 = Some (A.Safe A.Disjoint_footprints));
  let safe, racy, unknown = A.counts a in
  Alcotest.(check (triple int int int)) "both accesses safe" (2, 0, 0)
    (safe, racy, unknown)

(* The dual: a diamond whose paths leave different values in the
   address register must join to Top, not pick a side — the store
   falls back to dynamic checking. *)
let diamond_src =
  {|
.visible .entry diamond (.param .u64 out)
{
    .shared .align 4 .b8 buf[64];
    mov.s32 %r1, 1;
    setp.gt.s32 %p1, %tid.x, 15;
    @%p1 bra L_hi;
    mov.s64 %rdo, buf;
    bra.uni L_join;
L_hi:
    add.s64 %rdo, buf, 4;
L_join:
    st.shared.u32 [%rdo], %r1;
    ret;
}
|}

let test_diamond_join_is_top () =
  let a = A.analyze (parse diamond_src) in
  Alcotest.(check bool) "conflicting join leaves the address unknown" true
    (A.klass a 6 = A.Unknown_addr);
  Alcotest.(check bool) "store is left for dynamic checking" true
    (A.verdict a 6 = Some A.Unknown)

let uniform_safe_src =
  {|
.visible .entry uniform_safe (.param .u64 cfg, .param .u64 out)
{
    .shared .align 4 .b8 tile[256];
    ld.global.u32 %r1, [cfg];
    mad.lo.s64 %rds, %tid.x, 4, tile;
    st.shared.u32 [%rds], %r1;
    bar.sync 0;
    setp.gt.s32 %p1, %tid.x, 0;
    @%p1 ld.shared.u32 %r2, [%rds+-4];
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rdo, %rdt, 4, out;
    st.global.u32 [%rdo], %r2;
    ret;
}
|}

let test_uniform_safe_phased () =
  let a = A.analyze (parse uniform_safe_src) in
  let safe, racy, unknown = A.counts a in
  (* [cfg] and [out] may be one buffer, so the config load and the
     output store stay unknown. *)
  Alcotest.(check (triple int int int)) "the two tile accesses safe"
    (2, 0, 2) (safe, racy, unknown);
  Alcotest.(check bool) "the uniform config load is uniform" true
    (A.klass a 0 = A.Thread_uniform);
  (* The tile store conflicts with the neighbour read on addresses but
     the barrier separates their phases. *)
  Alcotest.(check bool) "tile store is barrier-phased" true
    (A.verdict a 2 = Some (A.Safe A.Barrier_phased));
  Alcotest.(check bool) "neighbour read is barrier-phased" true
    (A.verdict a 5 = Some (A.Safe A.Barrier_phased))

(* Same kernel without the barrier: the store/read pair can no longer
   be proved phased, so both fall back to dynamic checking. *)
let test_missing_barrier_not_safe () =
  let src =
    String.concat ""
      (String.split_on_char '\n' uniform_safe_src
      |> List.filter (fun l -> not (String.trim l = "bar.sync 0;"))
      |> List.map (fun l -> l ^ "\n"))
  in
  let a = A.analyze (parse src) in
  Alcotest.(check bool) "store and read left for dynamic checking" true
    (A.verdict a 2 = Some A.Unknown && A.verdict a 4 = Some A.Unknown);
  Alcotest.(check (triple int int int)) "nothing safe" (0, 0, 4) (A.counts a)

let static_racy_src =
  {|
.visible .entry static_racy (.param .u64 out)
{
    .shared .align 4 .b8 flag[16];
    st.shared.u32 [flag], 1;
    ld.shared.u32 %r1, [flag];
    st.global.u32 [out], %r1;
    ret;
}
|}

let layout ?(warp = 32) ~blocks ~tpb () =
  Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks

let test_static_racy_verdict () =
  let a = A.analyze (parse static_racy_src) in
  Alcotest.(check bool) "store verdict is racy" true
    (A.verdict a 0 = Some A.Racy);
  Alcotest.(check bool) "load verdict is racy" true
    (A.verdict a 1 = Some A.Racy);
  Alcotest.(check int) "one racy pair" 1 (List.length (A.pairs a));
  (* Shared-memory uniform conflicts need two warps in one block:
     intra-warp pairs are lockstep-ordered, so a single-warp block
     cannot materialize the race. *)
  Alcotest.(check bool) "racy for two warps per block" true
    (A.provably_racy a ~layout:(layout ~blocks:2 ~tpb:64 ()));
  Alcotest.(check bool) "not racy for one warp per block" false
    (A.provably_racy a ~layout:(layout ~blocks:4 ~tpb:32 ()));
  match Service.Exec.static_report a ~layout:(layout ~blocks:2 ~tpb:64 ()) with
  | None -> Alcotest.fail "expected a static report"
  | Some r ->
      Alcotest.(check bool) "static report carries the race" true
        (Report.has_race r)

(* Direct verdict checks against the suite's ground truth: a kernel
   whose accesses are all Safe must be a race-free case, and a kernel
   the analysis proves racy for its case layout must be a racy case. *)
let test_bugsuite_verdicts_consistent () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let a = A.analyze c.Bugsuite.Case.kernel in
      let safe, racy, unknown = A.counts a in
      if racy = 0 && unknown = 0 && safe > 0 then
        Alcotest.(check bool)
          (c.Bugsuite.Case.name ^ ": all-safe kernel must be race-free")
          true
          (c.Bugsuite.Case.verdict = Bugsuite.Case.Race_free);
      if A.provably_racy a ~layout:c.Bugsuite.Case.layout then
        Alcotest.(check bool)
          (c.Bugsuite.Case.name ^ ": provably-racy kernel must be racy")
          true
          (c.Bugsuite.Case.verdict = Bugsuite.Case.Racy))
    (Bugsuite.Cases.all @ Bugsuite.Cases.predictive)

(* ---- the service fast path --------------------------------------- *)

let submit ?(static = true) src =
  { (Service.Protocol.submit_defaults ~kind:Service.Protocol.Check src)
    with Service.Protocol.static }

let test_service_static_verdict () =
  let cache = Service.Cache.create ~capacity:4 () in
  let run ?static ~job src =
    match Service.Exec.run ~cache ~job (submit ?static src) with
    | Service.Protocol.Result r -> r
    | _ -> Alcotest.fail "expected a result from run"
  in
  (* The worker answers a provably racy kernel without executing it,
     cold or cached, and counts its cache lookup like any other. *)
  let cold = run ~job:7 static_racy_src in
  Alcotest.(check int) "run keeps its job id" 7 cold.job;
  Alcotest.(check bool) "run short-circuits statically" true
    cold.outcome.Service.Protocol.static;
  Alcotest.(check bool) "verdict is racy" true
    (cold.outcome.Service.Protocol.verdict = Service.Protocol.Racy);
  let warm = run ~job:8 static_racy_src in
  Alcotest.(check bool) "cached answer is static too" true
    warm.outcome.Service.Protocol.static;
  Alcotest.(check bool) "counted as a cache hit" true
    warm.outcome.Service.Protocol.cache_hit;
  (* ...but not when the client disabled the analysis, nor for a
     kernel the analysis cannot prove racy. *)
  Alcotest.(check bool) "no static answer with static off" false
    (run ~static:false ~job:9 static_racy_src).outcome.Service.Protocol.static;
  Alcotest.(check bool) "no static answer for a safe kernel" false
    (run ~job:10 vecadd_src).outcome.Service.Protocol.static

(* ---- one plan, every verdict path -------------------------------- *)

(* Two pointer parameters that a launch binds to one buffer
   ([alloc:4096] is the first allocation, at 4096): thread t stores
   a[t] and loads b[t+1], so thread 4's store and thread 3's load meet
   across the warp boundary.  Neither access may be called safe, so
   every way in reports check's races. *)
let aliased_src =
  {|
.visible .entry aliased (.param .u64 a, .param .u64 b)
{
    mad.lo.s64 %rda, %tid.x, 4, a;
    mad.lo.s64 %rdb, %tid.x, 4, b;
    st.global.u32 [%rda], 1;
    ld.global.u32 %r1, [%rdb+4];
    ret;
}
|}

let test_aliased_params_every_path () =
  let l = layout ~warp:4 ~blocks:1 ~tpb:8 () in
  let kernel = parse aliased_src in
  let specs = [ "alloc:4096"; "int:4096" ] in
  let run ?inst ?capture () =
    let m = Simt.Machine.create ~layout:l () in
    let args = Service.Exec.resolve_args m kernel specs in
    Alcotest.(check bool) "both parameters name one buffer" true
      (args.(0) = args.(1));
    Report.race_count
      (Session.run_stream ~detector:Gen.detector_config ?inst ?capture ~machine:m
         kernel args)
        .Session.sr_report
  in
  let capture = Buffer.create 4096 in
  let races = run ~capture () in
  Alcotest.(check bool) "check reports the aliasing race" true (races > 0);
  Alcotest.(check int) "profile's instrumented run" races
    (run ~inst:(Instrument.Pass.instrument ~layout:l kernel) ());
  let sub =
    {
      (submit aliased_src) with
      Service.Protocol.layout = Some (1, 8, 4);
      args = specs;
    }
  in
  let cache = Service.Cache.create ~capacity:2 () in
  (match Service.Exec.run ~cache ~job:1 sub with
  | Service.Protocol.Result r ->
      Alcotest.(check int) "daemon submit" races
        r.outcome.Service.Protocol.races
  | _ -> Alcotest.fail "the daemon job failed");
  let st = Service.Exec.stream_open ~cache sub in
  Session.feed_chunk st (Buffer.contents capture);
  Alcotest.(check int) "stream replay of the recording" races
    (Session.close_stream st).Session.p_race_count

let with_telemetry f =
  Gen.with_telemetry (fun () ->
      f (Telemetry.Registry.find_counter Telemetry.Registry.default))

(* A kernel is analyzed once per process however often it is checked,
   each time from a fresh parse, and only the analysis classifies its
   roles. *)
let test_plan_once_per_kernel () =
  let src =
    {|
.visible .entry plan_once (.param .u64 out)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rdo, %rdt, 4, out;
    st.global.u32 [%rdo], %rdt;
    ret;
}
|}
  in
  with_telemetry @@ fun counter ->
  for _ = 1 to 3 do
    let kernel = parse src in
    let l = layout ~blocks:2 ~tpb:64 () in
    let m = Simt.Machine.create ~layout:l () in
    let out = Int64.of_int (Simt.Machine.alloc_global m 512) in
    ignore (Session.run_stream ~machine:m kernel [| out |])
  done;
  Alcotest.(check int) "one analysis for three checks" 1
    (counter "barracuda_static_kernels_total");
  Alcotest.(check int) "each warp's store record planned out" 12
    (counter "barracuda_detector_planned_out_total")

(* The memo answers the same kernel value with the same plan, a fresh
   parse of it too, and holds [memo_capacity] kernels: after that many
   others, the least recently used is analyzed again. *)
let test_plan_memo_bound () =
  let kernel i =
    parse
      (Printf.sprintf
         ".entry memo_%d (.param .u64 a) { st.global.u32 [a], %d; ret; }" i i)
  in
  with_telemetry @@ fun counter ->
  let k0 = kernel 0 in
  let p0 = Static.Plan.of_kernel k0 in
  Alcotest.(check bool) "same kernel, same plan" true
    (Static.Plan.of_kernel k0 == p0);
  Alcotest.(check bool) "fresh parse, same plan" true
    (Static.Plan.of_kernel (kernel 0) == p0);
  for i = 1 to Static.Plan.memo_capacity do
    ignore (Static.Plan.of_kernel (kernel i))
  done;
  Alcotest.(check int) "one analysis per kernel"
    (1 + Static.Plan.memo_capacity)
    (counter "barracuda_static_kernels_total");
  Alcotest.(check bool) "the oldest was evicted" false
    (Static.Plan.of_kernel k0 == p0);
  Alcotest.(check int) "and analyzed again"
    (2 + Static.Plan.memo_capacity)
    (counter "barracuda_static_kernels_total")

(* ---- instrumentation wiring -------------------------------------- *)

let test_pass_static_tier () =
  let k = parse vecadd_src in
  let layout = Service.Exec.default_layout in
  let both_off =
    Instrument.Pass.instrument ~prune:false ~static:false ~layout k
  in
  let static_on = Instrument.Pass.instrument ~prune:false ~static:true ~layout k in
  Alcotest.(check int) "no pruning with both tiers off" 0
    (Instrument.Stats.pruned both_off.Instrument.Pass.stats);
  Alcotest.(check int) "static tier drops the a[] load alone" 1
    static_on.Instrument.Pass.stats.Instrument.Stats.pruned_static;
  Alcotest.(check int) "block tier idle" 0
    static_on.Instrument.Pass.stats.Instrument.Stats.pruned_block;
  (* A statically pruned access keeps its instruction — only its
     logging call disappears, so the instrumented body shrinks. *)
  Alcotest.(check bool) "pruning removes logging instructions" true
    (Array.length static_on.Instrument.Pass.kernel.Ptx.Ast.body
    < Array.length both_off.Instrument.Pass.kernel.Ptx.Ast.body);
  (* The 26 Table 1 workloads as deployed: Figure 9's per-tier split,
     and the records [run_stream] ships with the static tier off vs on. *)
  let module W = Workloads.Workload in
  let split =
    List.fold_left
      (fun (static, block) (w : W.t) ->
        let st =
          (Instrument.Pass.instrument ~layout:w.W.layout w.W.kernel)
            .Instrument.Pass.stats
        in
        ( static + st.Instrument.Stats.pruned_static,
          block + st.Instrument.Stats.pruned_block ))
      (0, 0) Workloads.Registry.all
  in
  Alcotest.(check (pair int int))
    "Figure 9 split over 26 workloads (static tier, block tier)" (123, 0) split;
  List.iter
    (fun (name, off, on) ->
      let w = Workloads.Registry.find name in
      let records static =
        let m = W.machine w in
        let args = w.W.setup m in
        (Session.run_stream
           ~inst:(Instrument.Pass.instrument ~static ~layout:w.W.layout w.W.kernel)
           ~machine:m w.W.kernel args)
          .Session.sr_records
      in
      let records_off = records false in
      Alcotest.(check (pair int int))
        (name ^ " records shipped, static tier off -> on")
        (off, on) (records_off, records true))
    [ ("lavamd", 46, 10); ("nn", 8, 8); ("backprop", 204, 168) ]

let suite =
  [
    Alcotest.test_case "vecadd: aliasable accesses stay unknown" `Quick
      test_vecadd_aliasable_unknown;
    Alcotest.test_case "branchy vecadd keeps its disjointness proof" `Quick
      test_branch_keeps_disjoint;
    Alcotest.test_case "diamond join falls back to unknown" `Quick
      test_diamond_join_is_top;
    Alcotest.test_case "barrier-phased tile is safe" `Quick
      test_uniform_safe_phased;
    Alcotest.test_case "missing barrier defeats the phase proof" `Quick
      test_missing_barrier_not_safe;
    Alcotest.test_case "uniform shared conflict is provably racy" `Quick
      test_static_racy_verdict;
    Alcotest.test_case "verdicts consistent with ground truth" `Quick
      test_bugsuite_verdicts_consistent;
    Alcotest.test_case "service static fast path" `Quick
      test_service_static_verdict;
    Alcotest.test_case "instrument static tier" `Quick test_pass_static_tier;
    Alcotest.test_case "aliased parameters race on every path" `Quick
      test_aliased_params_every_path;
    Alcotest.test_case "one analysis per kernel" `Quick
      test_plan_once_per_kernel;
    Alcotest.test_case "plan memo bound" `Quick test_plan_memo_bound;
  ]
