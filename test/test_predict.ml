(* Predictive race analysis: graph ordering, witness generation and the
   schedule-sensitive bug-suite supplement. *)

module Op = Gtrace.Op
module Loc = Gtrace.Loc
module A = Predict.Analysis

let layout = Gen.layout (* warp 4, 8 threads/block, 2 blocks *)
let data = Loc.global 0
let flag = Loc.global 64

let run ?config ops = A.run ?config ~layout ops

(* A witness re-checked the way [barracuda replay] checks a trace:
   straight into the reference detector. *)
let replay ~layout ops =
  let r = Barracuda.Reference.create ~layout () in
  Barracuda.Reference.run r ops;
  Barracuda.Reference.report r

let statuses a = List.map (fun (p : A.prediction) -> p.A.status) a.A.predictions

let witness_races (a : A.t) =
  List.for_all
    (fun (p : A.prediction) ->
      match p.A.witness with
      | None -> true
      | Some w ->
          w.Predict.Witness.feasible
          && Barracuda.Report.has_race (replay ~layout w.Predict.Witness.ops))
    a.A.predictions

(* ---- Hand-built traces -------------------------------------------- *)

(* The detector's atomic-atomic elision: the write is only compared to
   the latest atomic, so the earlier atomic's race is invisible in the
   recorded order but confirmed on a reordered witness. *)
let test_atomic_elision_confirmed () =
  let ops =
    [
      Op.Atm { tid = 0; loc = data; value = 1L };
      Op.Endi { warp = 0; mask = 0x1 };
      Op.Atm { tid = 8; loc = data; value = 2L };
      Op.Endi { warp = 2; mask = 0x1 };
      Op.Wr { tid = 8; loc = data; value = 3L };
      Op.Endi { warp = 2; mask = 0x1 };
    ]
  in
  let a = run ops in
  Alcotest.(check int) "recorded order is silent" 0 a.A.observed_race_count;
  Alcotest.(check (list bool)) "one confirmed prediction" [ true ]
    (List.map (fun s -> s = A.Confirmed) (statuses a));
  Alcotest.(check bool) "witness replay races" true (witness_races a)

let handoff scope =
  [
    Op.Atm { tid = 0; loc = data; value = 1L };
    Op.Endi { warp = 0; mask = 0x1 };
    Op.Rel { tid = 0; loc = flag; scope };
    Op.Endi { warp = 0; mask = 0x1 };
    Op.Acq { tid = 8; loc = flag; scope };
    Op.Endi { warp = 2; mask = 0x1 };
    Op.Atm { tid = 8; loc = data; value = 2L };
    Op.Endi { warp = 2; mask = 0x1 };
    Op.Wr { tid = 8; loc = data; value = 3L };
    Op.Endi { warp = 2; mask = 0x1 };
  ]

let test_global_handoff_ordered () =
  let a = run (handoff Op.Global_scope) in
  Alcotest.(check int) "no predictions" 0 (List.length a.A.predictions);
  Alcotest.(check int) "no observed races" 0 a.A.observed_race_count

let test_block_handoff_wrong_scope () =
  (* t0 and t8 are in different blocks: a block-scope release/acquire
     pair synchronizes nothing between them. *)
  let a = run (handoff Op.Block) in
  Alcotest.(check (list bool)) "one confirmed prediction" [ true ]
    (List.map (fun s -> s = A.Confirmed) (statuses a));
  Alcotest.(check bool) "witness replay races" true (witness_races a)

let test_barrier_orders_block () =
  let ops =
    [
      Op.Wr { tid = 0; loc = data; value = 1L };
      Op.Endi { warp = 0; mask = 0x1 };
      Op.Bar { block = 0 };
      Op.Rd { tid = 4; loc = data };
      Op.Endi { warp = 1; mask = 0x1 };
    ]
  in
  let a = run ops in
  Alcotest.(check int) "no predictions" 0 (List.length a.A.predictions)

let test_cross_block_race_is_observed () =
  let ops =
    [
      Op.Wr { tid = 0; loc = data; value = 1L };
      Op.Endi { warp = 0; mask = 0x1 };
      Op.Rd { tid = 8; loc = data };
      Op.Endi { warp = 2; mask = 0x1 };
    ]
  in
  let a = run ops in
  Alcotest.(check int) "recorded order races" 1 a.A.observed_race_count;
  Alcotest.(check (list bool)) "classified as observed" [ true ]
    (List.map (fun s -> s = A.Observed) (statuses a))

let test_same_value_filter () =
  let same v1 v2 =
    [
      Op.Wr { tid = 0; loc = data; value = v1 };
      Op.Wr { tid = 1; loc = data; value = v2 };
      Op.Endi { warp = 0; mask = 0x3 };
    ]
  in
  let benign = run (same 5L 5L) in
  Alcotest.(check int) "same-value pair filtered" 0
    (List.length benign.A.predictions);
  let racy = run (same 5L 6L) in
  Alcotest.(check int) "distinct values reported" 1
    (List.length racy.A.predictions)

(* ---- Schedule-sensitive bug-suite supplement ---------------------- *)

let case_named name =
  List.find (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.name = name)
    Bugsuite.Cases.predictive

let online_and_predict (case : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:case.Bugsuite.Case.layout () in
  let args = case.Bugsuite.Case.setup m in
  let r =
    Gpu_runtime.Session.run_stream ~machine:m case.Bugsuite.Case.kernel args
  in
  let online = Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report in
  let m2 = Simt.Machine.create ~layout:case.Bugsuite.Case.layout () in
  let args2 = case.Bugsuite.Case.setup m2 in
  let ops, _ =
    Gtrace.Infer.run ~layout:case.Bugsuite.Case.layout m2
      case.Bugsuite.Case.kernel args2
  in
  (online, A.run ~layout:case.Bugsuite.Case.layout ops)

let check_hidden_race name () =
  let case = case_named name in
  let online, a = online_and_predict case in
  Alcotest.(check bool) "online detector misses the race" false online;
  Alcotest.(check int) "recorded order is silent" 0 a.A.observed_race_count;
  Alcotest.(check bool) "race predicted" true (A.predicted_count a > 0);
  Alcotest.(check int) "every prediction confirmed" (A.predicted_count a)
    (A.confirmed_count a);
  Alcotest.(check bool) "witness replays race through the replay path" true
    (List.for_all
       (fun (p : A.prediction) ->
         match p.A.witness with
         | None -> false
         | Some w ->
             w.Predict.Witness.feasible
             && Barracuda.Report.has_race
                  (replay ~layout:case.Bugsuite.Case.layout
                     w.Predict.Witness.ops))
       a.A.predictions)

let test_predictive_twin_race_free () =
  let online, a = online_and_predict (case_named "pred_fence_right_scope") in
  Alcotest.(check bool) "online detector silent" false online;
  Alcotest.(check bool) "no races predicted" false (A.has_race a)

let test_predictive_suite_score () =
  let s = Bugsuite.Harness.run_predict Bugsuite.Cases.predictive in
  Alcotest.(check int) "predict scores every supplement case"
    s.Bugsuite.Harness.total s.Bugsuite.Harness.correct;
  (* The online detector must miss every racy supplement case: that is
     what makes them schedule-sensitive. *)
  let online = Bugsuite.Harness.run_barracuda Bugsuite.Cases.predictive in
  List.iter
    (fun (o : Bugsuite.Harness.outcome) ->
      Alcotest.(check bool)
        (o.Bugsuite.Harness.case.Bugsuite.Case.name ^ " online verdict") false
        o.Bugsuite.Harness.reported_race)
    online.Bugsuite.Harness.outcomes

(* ---- Properties over generated programs --------------------------- *)

let prop_witnesses_valid =
  QCheck2.Test.make ~name:"witness schedules are feasible and roundtrip"
    ~count:60 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let ops, _ = Gen.trace_of_program prog in
      let a = run ops in
      List.for_all
        (fun (p : A.prediction) ->
          match p.A.witness with
          | None -> true
          | Some w ->
              let ops_w = w.Predict.Witness.ops in
              w.Predict.Witness.feasible
              && Gtrace.Serialize.of_string
                   (Gtrace.Serialize.to_string ~layout ops_w)
                 = (layout, ops_w))
        a.A.predictions)

let prop_observed_races_enumerated =
  QCheck2.Test.make
    ~name:"every observed race surfaces as an unordered pair" ~count:60
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let ops, _ = Gen.trace_of_program prog in
      let a = run ops in
      a.A.observed_race_count = 0 || a.A.predictions <> [])

let suite =
  [
    Alcotest.test_case "atomic elision confirmed" `Quick
      test_atomic_elision_confirmed;
    Alcotest.test_case "global handoff ordered" `Quick
      test_global_handoff_ordered;
    Alcotest.test_case "wrong-scope handoff predicted" `Quick
      test_block_handoff_wrong_scope;
    Alcotest.test_case "barrier orders a block" `Quick
      test_barrier_orders_block;
    Alcotest.test_case "cross-block race observed" `Quick
      test_cross_block_race_is_observed;
    Alcotest.test_case "same-value filter" `Quick test_same_value_filter;
    Alcotest.test_case "suite: luck-ordered cross-block ww" `Quick
      (check_hidden_race "pred_luck_ordered_xblock_ww");
    Alcotest.test_case "suite: fence at wrong scope" `Quick
      (check_hidden_race "pred_fence_wrong_scope");
    Alcotest.test_case "suite: atomic ordered but unsynced" `Quick
      (check_hidden_race "pred_atomic_ordered_unsynced");
    Alcotest.test_case "suite: right-scope twin race-free" `Quick
      test_predictive_twin_race_free;
    Alcotest.test_case "suite: predict scores the supplement" `Quick
      test_predictive_suite_score;
    Gen.to_alcotest prop_witnesses_valid;
    Gen.to_alcotest prop_observed_races_enumerated;
  ]
