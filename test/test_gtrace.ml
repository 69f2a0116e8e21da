(* Trace layer: role inference, event->op translation, feasibility. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Roles = Gtrace.Roles
module Op = Gtrace.Op

let parse s = Ptx.Parser.kernel_of_string s

(* ---- Roles --------------------------------------------------------- *)

let role_at k i = (Roles.classify k).(i)

let test_roles_release_store () =
  let k =
    parse
      ".entry k (.param .u64 a) { membar.gl; st.global.u32 [a], 1; ret; }"
  in
  Alcotest.(check bool) "fence+store is a global release" true
    (Roles.equal (role_at k 1) (Roles.Release Op.Global_scope))

let test_roles_acquire_load () =
  let k =
    parse
      ".entry k (.param .u64 a) { ld.global.u32 %r1, [a]; membar.cta; ret; }"
  in
  Alcotest.(check bool) "load+fence is a block acquire" true
    (Roles.equal (role_at k 0) (Roles.Acquire Op.Block))

let test_roles_plain_when_separated () =
  let k =
    parse
      ".entry k (.param .u64 a) { membar.gl; mov.u32 %r1, 0; st.global.u32 [a], 1; ret; }"
  in
  Alcotest.(check bool) "separated store stays plain" true
    (Roles.equal (role_at k 2) Roles.Plain)

let test_roles_label_breaks_pairing () =
  let k =
    parse
      ".entry k (.param .u64 a) { membar.gl;\nL1: st.global.u32 [a], 1; ret; }"
  in
  Alcotest.(check bool) "label between fence and store breaks the release"
    true
    (Roles.equal (role_at k 1) Roles.Plain)

let test_roles_sandwiched_atomic () =
  let k =
    parse
      ".entry k (.param .u64 a) { membar.cta; atom.global.add.u32 %r1, [a], 1; membar.gl; ret; }"
  in
  Alcotest.(check bool) "sandwiched atomic is acq-rel at the wider scope" true
    (Roles.equal (role_at k 1) (Roles.Acquire_release Op.Global_scope))

let test_roles_cas_spin_loop () =
  (* the compiled lock idiom: cas; setp; @bra; membar *)
  let k =
    parse
      {|.entry k (.param .u64 a) {
L: atom.global.cas.b32 %r1, [a], 0, 1;
   setp.ne.u32 %p1, %r1, 0;
   @%p1 bra L;
   membar.gl;
   ret; }|}
  in
  Alcotest.(check bool) "spin-loop cas is an acquire" true
    (Roles.equal (role_at k 0) (Roles.Acquire Op.Global_scope))

let test_roles_exch_release () =
  let k =
    parse
      ".entry k (.param .u64 a) { membar.gl; atom.global.exch.b32 %r1, [a], 0; ret; }"
  in
  Alcotest.(check bool) "fence+exch is a release" true
    (Roles.equal (role_at k 1) (Roles.Release Op.Global_scope))

let test_roles_bare_atomic_plain () =
  let k =
    parse ".entry k (.param .u64 a) { atom.global.add.u32 %r1, [a], 1; ret; }"
  in
  Alcotest.(check bool) "bare atomic stays plain" true
    (Roles.equal (role_at k 0) Roles.Plain)

let test_roles_local_ignored () =
  let k =
    parse ".entry k (.param .u64 a) { membar.gl; st.local.u32 [a], 1; ret; }"
  in
  Alcotest.(check bool) "local store never a release" true
    (Roles.equal (role_at k 1) Roles.Plain)

(* ---- Event -> Op translation --------------------------------------- *)

let trace_of = Gen.trace_of_program

let test_infer_bytes_per_access () =
  (* one 4-byte store by 4 active lanes in block 0 -> 16 Wr ops + endi *)
  let ops, _ =
    trace_of [ Gen.If_block [ Gen.If_tid_lt (4, [ Gen.Global_store (0, Gen.Const 1) ], []) ] ]
  in
  let wr =
    List.filter (function Op.Wr _ -> true | _ -> false) ops
  in
  Alcotest.(check int) "4 lanes x 4 bytes" 16 (List.length wr)

let test_infer_endi_follows_access () =
  let ops, _ = trace_of [ Gen.Global_load 0 ] in
  let rec check = function
    | [] -> ()
    | Op.Rd _ :: rest ->
        let rec skip = function
          | Op.Rd _ :: r -> skip r
          | Op.Endi _ :: r -> check r
          | _ -> Alcotest.fail "reads not followed by endi"
        in
        skip rest
    | _ :: rest -> check rest
  in
  check ops

let test_infer_barrier_op () =
  let ops, _ = trace_of [ Gen.Barrier ] in
  Alcotest.(check int) "one bar per block" 2
    (List.length (List.filter (function Op.Bar _ -> true | _ -> false) ops))

let test_infer_branch_ops_balanced () =
  let ops, _ =
    trace_of
      [ Gen.If_parity ([ Gen.Global_load 0 ], [ Gen.Global_load 1 ]) ]
  in
  let count p = List.length (List.filter p ops) in
  let ifs = count (function Op.If _ -> true | _ -> false) in
  let pops =
    count (function Op.Else _ | Op.Fi _ -> true | _ -> false)
  in
  Alcotest.(check bool) "divergence seen" true (ifs > 0);
  Alcotest.(check int) "each if has two pops" (2 * ifs) pops

let prop_traces_feasible =
  QCheck2.Test.make ~name:"inferred traces are feasible" ~count:200
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let ops, _ = trace_of prog in
      match Gtrace.Feasible.check ~layout:Gen.layout ops with
      | Ok () -> true
      | Error v ->
          QCheck2.Test.fail_reportf "infeasible: %a"
            Gtrace.Feasible.pp_violation v)

(* ---- Feasibility checker rejects bad traces ------------------------ *)

let loc = Gtrace.Loc.global 0

let test_feasible_rejects_inactive_mem_op () =
  (* divergence puts lanes 0-1 on the then path; a memory op by lane 2
     is infeasible *)
  let tid_lane2 = 2 in
  let ops =
    [
      Op.If { warp = 0; then_mask = 0x3; else_mask = 0xC };
      Op.Wr { tid = tid_lane2; loc; value = 0L };
    ]
  in
  Alcotest.(check bool) "rejected" true
    (Gtrace.Feasible.check ~layout:Gen.layout ops |> Result.is_error)

let test_feasible_rejects_unbalanced_fi () =
  let ops = [ Op.Fi { warp = 0; mask = 0xF } ] in
  Alcotest.(check bool) "rejected" true
    (Gtrace.Feasible.check ~layout:Gen.layout ops |> Result.is_error)

let test_feasible_rejects_pending_mem_at_if () =
  let ops =
    [
      Op.Wr { tid = 0; loc; value = 0L };
      Op.If { warp = 0; then_mask = 0x3; else_mask = 0xC };
    ]
  in
  Alcotest.(check bool) "rejected" true
    (Gtrace.Feasible.check ~layout:Gen.layout ops |> Result.is_error)

let test_feasible_accepts_simple () =
  let ops =
    [
      Op.Wr { tid = 0; loc; value = 0L };
      Op.Endi { warp = 0; mask = 0x1 };
      Op.Bar { block = 0 };
    ]
  in
  Alcotest.(check bool) "accepted" true
    (Gtrace.Feasible.check ~layout:Gen.layout ops |> Result.is_ok)

(* ---- Serialization ------------------------------------------------- *)

let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"traces roundtrip through serialization"
    ~count:150 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let ops, _ = trace_of prog in
      let text = Gtrace.Serialize.to_string ~layout:Gen.layout ops in
      let layout', ops' = Gtrace.Serialize.of_string text in
      layout' = Gen.layout && ops = ops')

let test_serialize_rejects_garbage () =
  let expect_error s =
    match Gtrace.Serialize.of_string s with
    | exception Gtrace.Serialize.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_error "not a trace";
  expect_error "# barracuda-trace v1 warp_size=4 threads_per_block=8 blocks=2\nbogus op";
  expect_error "# barracuda-trace v1 warp_size=4 threads_per_block=8 blocks=2\nwr tX g:0x0 =1"

(* Inputs that escaped as [Invalid_argument] or parsed silently into a
   trace naming ids its layout does not have: each is a [Parse_error]
   at its line, the one error the CLI (exit 2) and the daemon
   ([parse_error]) report. *)
let test_serialize_typed_errors () =
  let header =
    "# barracuda-trace v1 warp_size=4 threads_per_block=8 blocks=2"
  in
  List.iter
    (fun (what, text, line) ->
      match Gtrace.Serialize.of_string text with
      | exception Gtrace.Serialize.Parse_error e ->
          Alcotest.(check int) (what ^ ": line") line e.line
      | exception e ->
          Alcotest.failf "%s: escaped %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("empty space tag", header ^ "\nrd t0 :0x1000", 2);
      ("negative thread", header ^ "\nrd t-1 g:0x1000", 2);
      ( "zero blocks",
        "# barracuda-trace v1 warp_size=4 threads_per_block=8 blocks=0",
        1 );
      ( "zero warp size",
        "# barracuda-trace v1 warp_size=0 threads_per_block=8 blocks=2",
        1 );
      ("thread outside the layout", header ^ "\nrd t99999 g:0x1000", 2);
      ("block outside the layout", header ^ "\nbar b7", 2);
      ("warp outside the layout", header ^ "\nendi w99 f", 2);
      ("shared region outside the layout", header ^ "\nrd t0 s9:0x10", 2);
      ("mask lane beyond the warp", header ^ "\nendi w0 ffffffffff", 2);
    ]

let test_serialize_replay_equal_verdict () =
  let prog = [ Gen.Global_store (0, Gen.Lane_dependent); Gen.Barrier; Gen.Global_load 0 ] in
  let ops, _ = trace_of prog in
  let text = Gtrace.Serialize.to_string ~layout:Gen.layout ops in
  let layout', ops' = Gtrace.Serialize.of_string text in
  let d1 = Barracuda.Reference.create ~layout:Gen.layout () in
  Barracuda.Reference.run d1 ops;
  let d2 = Barracuda.Reference.create ~layout:layout' () in
  Barracuda.Reference.run d2 ops';
  Alcotest.(check int) "same race count after replay"
    (Barracuda.Report.race_count (Barracuda.Reference.report d1))
    (Barracuda.Report.race_count (Barracuda.Reference.report d2))

let suite =
  [
    Alcotest.test_case "roles: release store" `Quick test_roles_release_store;
    Alcotest.test_case "roles: acquire load" `Quick test_roles_acquire_load;
    Alcotest.test_case "roles: separation breaks pairing" `Quick
      test_roles_plain_when_separated;
    Alcotest.test_case "roles: label breaks pairing" `Quick
      test_roles_label_breaks_pairing;
    Alcotest.test_case "roles: sandwiched atomic" `Quick
      test_roles_sandwiched_atomic;
    Alcotest.test_case "roles: cas spin loop" `Quick test_roles_cas_spin_loop;
    Alcotest.test_case "roles: exch release" `Quick test_roles_exch_release;
    Alcotest.test_case "roles: bare atomic plain" `Quick
      test_roles_bare_atomic_plain;
    Alcotest.test_case "roles: local ignored" `Quick test_roles_local_ignored;
    Alcotest.test_case "infer: byte expansion" `Quick test_infer_bytes_per_access;
    Alcotest.test_case "infer: endi placement" `Quick test_infer_endi_follows_access;
    Alcotest.test_case "infer: barrier ops" `Quick test_infer_barrier_op;
    Alcotest.test_case "infer: branch ops balanced" `Quick
      test_infer_branch_ops_balanced;
    Alcotest.test_case "feasible: inactive mem op" `Quick
      test_feasible_rejects_inactive_mem_op;
    Alcotest.test_case "feasible: unbalanced fi" `Quick
      test_feasible_rejects_unbalanced_fi;
    Alcotest.test_case "feasible: pending mem at if" `Quick
      test_feasible_rejects_pending_mem_at_if;
    Alcotest.test_case "feasible: accepts simple" `Quick test_feasible_accepts_simple;
    Alcotest.test_case "serialize rejects garbage" `Quick
      test_serialize_rejects_garbage;
    Alcotest.test_case "serialize: typed errors" `Quick
      test_serialize_typed_errors;
    Alcotest.test_case "serialize replay verdict" `Quick
      test_serialize_replay_equal_verdict;
  ]
  @ List.map Gen.to_alcotest
      [ prop_traces_feasible; prop_trace_roundtrip ]
