(* Tests for the PTX subset: lexer, parser, printer roundtrip, builder
   and static validation. *)

module Ast = Ptx.Ast
module B = Ptx.Builder

(* ---- Lexer --------------------------------------------------------- *)

let tokens_of s =
  let lx = Ptx.Lexer.of_string s in
  let rec go acc =
    match Ptx.Lexer.next lx with
    | Ptx.Lexer.Eof -> List.rev acc
    | t -> go (t :: acc)
  in
  go []

let test_lexer_mnemonics () =
  match tokens_of "ld.global.cg.u32 %r1, [a+4];" with
  | [ Word "ld.global.cg.u32"; Regname "%r1"; Comma; Lbracket; Word "a";
      Plus; Int 4L; Rbracket; Semi ] ->
      ()
  | toks ->
      Alcotest.failf "unexpected tokens: %a"
        (Format.pp_print_list Ptx.Lexer.pp_token)
        toks

let test_lexer_special_regs () =
  match tokens_of "%tid.x %laneid" with
  | [ Regname "%tid.x"; Regname "%laneid" ] -> ()
  | _ -> Alcotest.fail "special registers mis-lexed"

let test_lexer_comments () =
  (* "ret" ";" "ret": both comment styles vanish *)
  Alcotest.(check int) "comments skipped" 3
    (List.length (tokens_of "ret; // trailing\n/* block\ncomment */ ret"))

let test_lexer_numbers () =
  match tokens_of "0x10 -3 42" with
  | [ Int 16L; Int (-3L); Int 42L ] -> ()
  | _ -> Alcotest.fail "numbers mis-lexed"

let test_lexer_error_line () =
  match tokens_of "ret;\n ~" with
  | exception Ptx.Lexer.Error { line = 2; _ } -> ()
  | exception Ptx.Lexer.Error { line; _ } ->
      Alcotest.failf "wrong error line %d" line
  | _ -> Alcotest.fail "expected a lexer error"

(* ---- Parser -------------------------------------------------------- *)

let sample_ptx =
  {|
.version 4.3
.target sm_35
.address_size 64

.visible .entry vecadd (.param .u64 a, .param .u64 b)
{
    .shared .align 4 .b8 buf[64];
    mov.u32 %r1, %tid.x;
    mad.lo.s64 %rd1, %r1, 4, a;
    ld.global.cg.u32 %r2, [%rd1];
    st.shared.u32 [buf+8], %r2;
    bar.sync 0;
    atom.global.cas.b32 %r3, [b], 0, 1;
    @%p1 bra DONE;
    membar.gl;
DONE:
    ret;
}
|}

let test_parser_sample () =
  let k = Ptx.Parser.kernel_of_string sample_ptx in
  Alcotest.(check string) "name" "vecadd" k.Ast.kname;
  Alcotest.(check (list string)) "params" [ "a"; "b" ] k.Ast.params;
  Alcotest.(check (list (pair string int))) "shared" [ ("buf", 64) ]
    k.Ast.shared_decls;
  Alcotest.(check int) "instructions" 9 (Array.length k.Ast.body);
  (match k.Ast.body.(2).Ast.kind with
  | Ast.Ld { space = Ast.Global; cache = Ast.Cg; width = 4; dst = "%r2"; _ } ->
      ()
  | _ -> Alcotest.fail "load mis-parsed");
  (match k.Ast.body.(3).Ast.kind with
  | Ast.St { space = Ast.Shared; addr = { offset = 8; _ }; _ } -> ()
  | _ -> Alcotest.fail "store mis-parsed");
  (match k.Ast.body.(5).Ast.kind with
  | Ast.Atom { op = Ast.A_cas; src2 = Some _; _ } -> ()
  | _ -> Alcotest.fail "cas mis-parsed");
  (match k.Ast.body.(6) with
  | { Ast.guard = Some (true, "%p1"); kind = Ast.Bra { target = "DONE"; _ }; _ }
    ->
      ()
  | _ -> Alcotest.fail "guarded branch mis-parsed");
  match k.Ast.body.(8) with
  | { Ast.label = Some "DONE"; kind = Ast.Ret; _ } -> ()
  | _ -> Alcotest.fail "label mis-attached"

let test_parser_errors () =
  let expect_error s =
    match Ptx.Parser.program_of_string s with
    | exception Ptx.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_error ".entry k { atom.global.cas.b32 %r1, [a], 0; }";
  expect_error ".entry k { membar; }";
  expect_error ".entry k { frobnicate %r1; }";
  expect_error ".entry k { ld.global.u32 %r1 [a]; }"

let test_parser_predicated_negation () =
  let k =
    Ptx.Parser.kernel_of_string
      ".entry k (.param .u64 a) { @!%p2 st.global.u32 [a], 1; ret; }"
  in
  match k.Ast.body.(0).Ast.guard with
  | Some (false, "%p2") -> ()
  | _ -> Alcotest.fail "negated guard mis-parsed"

(* ---- Printer roundtrip -------------------------------------------- *)

let strip_labels_positions (k : Ast.kernel) =
  (* compare structure: kinds, guards and label *presence* per index *)
  Array.map
    (fun i -> (i.Ast.kind, i.Ast.guard, i.Ast.label <> None))
    k.Ast.body

let test_roundtrip_sample () =
  let k = Ptx.Parser.kernel_of_string sample_ptx in
  let k' = Ptx.Parser.kernel_of_string (Ptx.Printer.kernel_to_string k) in
  Alcotest.(check bool) "structure preserved" true
    (strip_labels_positions k = strip_labels_positions k');
  Alcotest.(check (list string)) "params" k.Ast.params k'.Ast.params

(* The full printer<->parser contract: the re-parse of a printed kernel
   is structurally *equal* — every instruction record (kind, guard,
   label string), the name, the parameters and the shared declarations.
   The AST stores no source positions, so plain equality is exact. *)
let prop_builder_print_parse_roundtrip =
  QCheck2.Test.make ~name:"builder kernels roundtrip through print+parse"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      let k' = Ptx.Parser.kernel_of_string (Ptx.Printer.kernel_to_string k) in
      k = k')

(* The same contract over the instruction forms the repair engine
   emits: load/store pairs promoted to atomics (add-0 reads, exch
   writes, plus the cas form), block fences strengthened to global and
   system scope, and bar.sync/membar insertions.  Every mutated kernel
   must survive print -> parse with full equality and still validate —
   exactly what the validation gauntlet's first stage relies on. *)
let repair_style_mutations (k : Ast.kernel) =
  let promote (i : Ast.insn) =
    match i.Ast.kind with
    | Ast.Ld { space; width; dst; addr; _ } ->
        {
          i with
          Ast.kind =
            Ast.Atom
              {
                space;
                op = Ast.A_add;
                width;
                dst;
                addr;
                src = Ast.Imm 0L;
                src2 = None;
              };
        }
    | Ast.St { space; width; src; addr; _ } ->
        {
          i with
          Ast.kind =
            Ast.Atom
              { space; op = Ast.A_exch; width; dst = "%rrt0"; addr; src;
                src2 = None };
        }
    | _ -> i
  in
  let strengthen (i : Ast.insn) =
    match i.Ast.kind with
    | Ast.Membar Ast.Cta -> { i with Ast.kind = Ast.Membar Ast.Gl }
    | Ast.Membar Ast.Gl -> { i with Ast.kind = Ast.Membar Ast.Sys }
    | _ -> i
  in
  let with_body body = { k with Ast.body } in
  let inserted =
    (* prepend the synchronization forms repair inserts, plus a cas,
       at index 0 — never a branch target, so labels stay intact *)
    with_body
      (Array.append
         [|
           Ast.mk (Ast.Bar_sync 0);
           Ast.mk (Ast.Membar Ast.Gl);
           Ast.mk
             (Ast.Atom
                {
                  space = Ast.Global;
                  op = Ast.A_cas;
                  width = 4;
                  dst = "%rrt1";
                  addr = { Ast.base = Ast.Sym "g"; offset = 0 };
                  src = Ast.Imm 0L;
                  src2 = Some (Ast.Imm 1L);
                });
         |]
         k.Ast.body)
  in
  [
    with_body (Array.map promote k.Ast.body);
    with_body (Array.map strengthen k.Ast.body);
    inserted;
  ]

let prop_repair_forms_roundtrip =
  QCheck2.Test.make
    ~name:"repair-emitted forms roundtrip through print+parse and validate"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      List.for_all
        (fun k ->
          let k' =
            Ptx.Parser.kernel_of_string (Ptx.Printer.kernel_to_string k)
          in
          k = k' && Ptx.Validate.check k' = [])
        (repair_style_mutations (Gen.kernel_of_program prog)))

(* ---- Builder ------------------------------------------------------- *)

let test_builder_if_else_shape () =
  let b = B.create "k" in
  B.if_else b Ast.C_eq (Ast.Sreg Ast.Tid) (B.imm 0)
    (fun b -> B.mov b (B.fresh_reg b) (B.imm 1))
    (fun b -> B.mov b (B.fresh_reg b) (B.imm 2));
  let k = B.finish b in
  let branches =
    Array.to_list k.Ast.body
    |> List.filter (fun i ->
           match i.Ast.kind with Ast.Bra _ -> true | _ -> false)
  in
  Alcotest.(check int) "two branches (cond + skip-else)" 2
    (List.length branches);
  Ptx.Validate.check_exn k

let test_builder_auto_ret () =
  let b = B.create "k" in
  B.mov b (B.fresh_reg b) (B.imm 1);
  let k = B.finish b in
  match k.Ast.body.(Array.length k.Ast.body - 1).Ast.kind with
  | Ast.Ret -> ()
  | _ -> Alcotest.fail "finish must append ret"

let test_builder_while_loops () =
  let b = B.create "k" in
  let i = B.fresh_reg b in
  B.mov b i (B.imm 0);
  B.while_ b Ast.C_lt
    (fun _ -> (B.reg i, B.imm 3))
    (fun b -> B.binop b Ast.B_add i (B.reg i) (B.imm 1));
  Ptx.Validate.check_exn (B.finish b)

(* ---- Validate ------------------------------------------------------ *)

let test_validate_catches () =
  let bad_branch =
    {
      Ast.kname = "k";
      params = [];
      shared_decls = [];
      body = [| Ast.mk (Ast.Bra { uni = false; target = "nowhere" }) |];
    }
  in
  Alcotest.(check bool) "dangling branch" false
    (Ptx.Validate.check bad_branch = []);
  let bad_sym =
    {
      Ast.kname = "k";
      params = [];
      shared_decls = [];
      body =
        [|
          Ast.mk
            (Ast.St
               {
                 space = Ast.Global;
                 cache = Ast.Ca;
                 width = 4;
                 src = Ast.Imm 0L;
                 addr = { base = Ast.Sym "ghost"; offset = 0 };
               });
        |];
    }
  in
  Alcotest.(check bool) "unknown symbol" false (Ptx.Validate.check bad_sym = [])

(* What the simulator cannot honour is rejected, and the message names
   the instruction. *)
let test_validate_param_space () =
  List.iter
    (fun (insn, expected) ->
      let src =
        Printf.sprintf ".entry probe (.param .u64 a, .param .u64 b)\n{\n  %s;\n  ret;\n}\n" insn
      in
      match Ptx.Validate.check (Ptx.Parser.kernel_of_string src) with
      | [ { Ptx.Validate.index = 0; message } ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %s" insn message expected)
            true
            (String.starts_with ~prefix:expected message)
      | issues ->
          Alcotest.failf "%s: expected one issue, got %d" insn (List.length issues))
    [
      ("st.param.u64 [a], 1", "st.param");
      ("atom.param.add.u64 %rd1, [a], 1", "atom.param");
      ("ld.param.u64 %rd1, [a+8]", "ld.param [a+8]");
    ];
  Alcotest.(check int) "ld.param at offset 0 is fine" 0
    (List.length
       (Ptx.Validate.check
          (Ptx.Parser.kernel_of_string
             ".entry probe (.param .u64 a)\n{\n  ld.param.u64 %rd1, [a];\n  ret;\n}\n")))

let prop_builder_kernels_validate =
  QCheck2.Test.make ~name:"generated kernels are well-formed" ~count:200
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      Ptx.Validate.check (Gen.kernel_of_program prog) = [])

(* ---- Untrusted text ------------------------------------------------ *)

(* The bug suite's kernels, printed: the seeds the mutator starts from. *)
let suite_sources =
  Array.of_list
    (List.map
       (fun (c : Bugsuite.Case.t) ->
         Format.asprintf "%a" Ptx.Printer.pp_kernel c.Bugsuite.Case.kernel)
       Bugsuite.Cases.all)

(* A mutated kernel is only parsed, never executed. *)
let prop_mutated_ptx =
  QCheck2.Test.make ~name:"mutated PTX parses or fails, never raises"
    ~count:2000
    ~print:(fun (i, muts) -> Gen.mutate suite_sources.(i) muts)
    QCheck2.Gen.(
      pair (int_bound (Array.length suite_sources - 1)) Gen.gen_mutations)
    (fun (i, muts) ->
      match Ptx.Parser.kernel_of_string (Gen.mutate suite_sources.(i) muts) with
      | _ | (exception Ptx.Parser.Error _) -> true)

let suite =
  [
    Alcotest.test_case "lexer mnemonics" `Quick test_lexer_mnemonics;
    Alcotest.test_case "lexer special regs" `Quick test_lexer_special_regs;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer error lines" `Quick test_lexer_error_line;
    Alcotest.test_case "parser sample kernel" `Quick test_parser_sample;
    Alcotest.test_case "parser rejects malformed" `Quick test_parser_errors;
    Alcotest.test_case "parser negated guard" `Quick
      test_parser_predicated_negation;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip_sample;
    Alcotest.test_case "builder if/else shape" `Quick test_builder_if_else_shape;
    Alcotest.test_case "builder auto ret" `Quick test_builder_auto_ret;
    Alcotest.test_case "builder while loop" `Quick test_builder_while_loops;
    Alcotest.test_case "validate catches errors" `Quick test_validate_catches;
    Alcotest.test_case "validate rejects param writes and offsets" `Quick
      test_validate_param_space;
  ]
  @ List.map Gen.to_alcotest
      [
        prop_builder_print_parse_roundtrip;
        prop_repair_forms_roundtrip;
        prop_builder_kernels_validate;
        prop_mutated_ptx;
      ]
