(* Execution-semantics tests for the SIMT machine: memory, SIMT stack,
   arithmetic, divergence, barriers, atomics, special registers. *)

module Ast = Ptx.Ast
module B = Ptx.Builder

let lay = Vclock.Layout.make ~warp_size:4 ~threads_per_block:8 ~blocks:2

(* ---- Memory -------------------------------------------------------- *)

let test_memory_widths () =
  let m = Simt.Memory.create () in
  Simt.Memory.write m ~addr:0 ~width:4 0x01020304L;
  Alcotest.(check int64) "little endian byte" 0x04L
    (Simt.Memory.read m ~addr:0 ~width:1);
  Alcotest.(check int64) "middle bytes" 0x0203L
    (Simt.Memory.read m ~addr:1 ~width:2);
  Alcotest.(check int64) "unwritten reads zero" 0L
    (Simt.Memory.read m ~addr:100 ~width:8);
  Simt.Memory.write m ~addr:2 ~width:1 0xFFL;
  Alcotest.(check int64) "partial overwrite" 0x01FF0304L
    (Simt.Memory.read m ~addr:0 ~width:4)

(* ---- SIMT stack ----------------------------------------------------- *)

let test_stack_diverge_pop () =
  let st = Simt.Simt_stack.create ~pc:0 ~mask:0xF in
  Simt.Simt_stack.diverge st ~reconv:10 ~first:(1, 0x3) ~second:(5, 0xC);
  Alcotest.(check int) "first path mask" 0x3 (Simt.Simt_stack.active_mask st);
  Alcotest.(check int) "first path pc" 1 (Simt.Simt_stack.pc st);
  Simt.Simt_stack.set_pc st 10;
  (match Simt.Simt_stack.try_pop st with
  | Some (Simt.Simt_stack.Switched e) ->
      Alcotest.(check int) "switched to second path" 0xC e.Simt.Simt_stack.mask
  | _ -> Alcotest.fail "expected a switch");
  Simt.Simt_stack.set_pc st 10;
  match Simt.Simt_stack.try_pop st with
  | Some (Simt.Simt_stack.Reconverged e) ->
      Alcotest.(check int) "reconverged mask" 0xF e.Simt.Simt_stack.mask
  | _ -> Alcotest.fail "expected reconvergence"

let test_stack_retire () =
  let st = Simt.Simt_stack.create ~pc:0 ~mask:0xF in
  Simt.Simt_stack.diverge st ~reconv:10 ~first:(1, 0x3) ~second:(5, 0xC);
  Simt.Simt_stack.retire st 0x1;
  Alcotest.(check int) "retired lane removed" 0x2
    (Simt.Simt_stack.active_mask st);
  Alcotest.(check bool) "not done" false (Simt.Simt_stack.is_done st);
  Simt.Simt_stack.retire st 0xE;
  Alcotest.(check bool) "all retired" true (Simt.Simt_stack.is_done st)

let test_stack_invalid_diverge () =
  let st = Simt.Simt_stack.create ~pc:0 ~mask:0xF in
  Alcotest.(check bool) "overlapping masks rejected" true
    (match Simt.Simt_stack.diverge st ~reconv:9 ~first:(1, 0x3) ~second:(2, 0x2) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ---- Machine execution --------------------------------------------- *)

let run_kernel ?(lay = lay) build args_of =
  let m = Simt.Machine.create ~layout:lay () in
  let b = B.create ~params:[ "out" ] ~shared:[ ("smem", 64) ] "t" in
  build b;
  let k = B.finish b in
  let args = args_of m in
  let r = Simt.Machine.launch m k args in
  (m, r)

let read_out m base i = Simt.Machine.peek m ~addr:(base + (4 * i)) ~width:4

let test_exec_arithmetic () =
  let base = ref 0 in
  let m, r =
    run_kernel
      (fun b ->
        let g = B.global_tid b in
        let v = B.fresh_reg b in
        (* v = (g*3 + 1) min 10 *)
        B.mad b v (B.reg g) (B.imm 3) (B.imm 1);
        B.binop b Ast.B_min v (B.reg v) (B.imm 10);
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        B.st b (B.reg a) (B.reg v))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  Alcotest.(check bool) "completed" true (r.Simt.Machine.status = Simt.Machine.Completed);
  Alcotest.(check int64) "thread 0" 1L (read_out m !base 0);
  Alcotest.(check int64) "thread 2" 7L (read_out m !base 2);
  Alcotest.(check int64) "thread 5 clamped" 10L (read_out m !base 5)

let test_exec_divergence_and_selp () =
  let base = ref 0 in
  let m, _ =
    run_kernel
      (fun b ->
        let g = B.global_tid b in
        let parity = B.fresh_reg b in
        B.binop b Ast.B_and parity (B.reg g) (B.imm 1);
        let v = B.fresh_reg b in
        B.if_else b Ast.C_eq (B.reg parity) (B.imm 0)
          (fun b -> B.mov b v (B.imm 100))
          (fun b -> B.mov b v (B.imm 200));
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        B.st b (B.reg a) (B.reg v))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  Alcotest.(check int64) "even lane" 100L (read_out m !base 0);
  Alcotest.(check int64) "odd lane" 200L (read_out m !base 1)

let test_exec_atomics_serialize () =
  let base = ref 0 in
  let m, _ =
    run_kernel
      (fun b ->
        let old = B.fresh_reg b in
        B.atom b Ast.A_add old (B.sym "out") (B.imm 1))
      (fun m ->
        base := Simt.Machine.alloc_global m 16;
        [| Int64.of_int !base |])
  in
  Alcotest.(check int64) "all increments land" 16L (read_out m !base 0)

let test_exec_cas_exch () =
  let base = ref 0 in
  let m, _ =
    run_kernel
      (fun b ->
        (* thread 0: cas 0->7 succeeds; thread 1: exch to 9 *)
        B.if_ b Ast.C_eq (Ast.Sreg Ast.Tid) (B.imm 0) (fun b ->
            B.if_ b Ast.C_eq (Ast.Sreg Ast.Ctaid) (B.imm 0) (fun b ->
                let o = B.fresh_reg b in
                B.atom_cas b o (B.sym "out") (B.imm 0) (B.imm 7);
                let o2 = B.fresh_reg b in
                B.atom_cas b o2 (B.sym "out") (B.imm 0) (B.imm 5);
                (* second cas must fail: record old value *)
                B.st b ~offset:4 (B.sym "out") (B.reg o2))))
      (fun m ->
        base := Simt.Machine.alloc_global m 16;
        [| Int64.of_int !base |])
  in
  Alcotest.(check int64) "cas installed" 7L (read_out m !base 0);
  Alcotest.(check int64) "failed cas returned old" 7L (read_out m !base 1)

let test_exec_barrier_phases () =
  let base = ref 0 in
  let m, r =
    run_kernel
      (fun b ->
        (* s[tid] = tid; bar; out[gtid] = s[(tid+1) mod 8] *)
        let sa = B.fresh_reg ~cls:"rd" b in
        B.mad b sa (Ast.Sreg Ast.Tid) (B.imm 4) (B.sym "smem");
        B.st ~space:Ast.Shared b (B.reg sa) (Ast.Sreg Ast.Tid);
        B.bar b;
        let n = B.fresh_reg b in
        B.binop b Ast.B_add n (Ast.Sreg Ast.Tid) (B.imm 1);
        B.binop b Ast.B_and n (B.reg n) (B.imm 7);
        let na = B.fresh_reg ~cls:"rd" b in
        B.mad b na (B.reg n) (B.imm 4) (B.sym "smem");
        let v = B.fresh_reg b in
        B.ld ~space:Ast.Shared b v (B.reg na);
        let g = B.global_tid b in
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        B.st b (B.reg a) (B.reg v))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  Alcotest.(check bool) "no divergence" false r.Simt.Machine.barrier_divergence;
  Alcotest.(check int64) "rotated value" 1L (read_out m !base 0);
  Alcotest.(check int64) "wraparound" 0L (read_out m !base 7);
  (* block 1 uses its own shared memory *)
  Alcotest.(check int64) "block 1 rotated" 1L (read_out m !base 8)

let test_exec_barrier_divergence_flag () =
  let _, r =
    run_kernel
      (fun b ->
        B.if_ b Ast.C_lt (Ast.Sreg Ast.Tid) (B.imm 4) (fun b -> B.bar b))
      (fun m ->
        let base = Simt.Machine.alloc_global m 16 in
        [| Int64.of_int base |])
  in
  Alcotest.(check bool) "divergence detected" true
    r.Simt.Machine.barrier_divergence

let test_exec_special_registers () =
  let base = ref 0 in
  let m, _ =
    run_kernel
      (fun b ->
        let g = B.global_tid b in
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        let v = B.fresh_reg b in
        (* encode laneid + 10*warpid + 100*ctaid *)
        B.mad b v (Ast.Sreg Ast.Warpid) (B.imm 10) (Ast.Sreg Ast.Laneid);
        B.mad b v (Ast.Sreg Ast.Ctaid) (B.imm 100) (B.reg v);
        B.st b (B.reg a) (B.reg v))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  (* thread 5 = lane 1 of warp 1 in block 0 *)
  Alcotest.(check int64) "thread 5" 11L (read_out m !base 5);
  (* thread 14 = gtid 14, block 1, warp 1, lane 2 *)
  Alcotest.(check int64) "thread 14" 112L (read_out m !base 14)

let test_exec_loop_trip_counts () =
  let base = ref 0 in
  let m, _ =
    run_kernel
      (fun b ->
        let g = B.global_tid b in
        (* each thread loops tid+1 times *)
        let limit = B.fresh_reg b in
        B.binop b Ast.B_add limit (Ast.Sreg Ast.Tid) (B.imm 1);
        let i = B.fresh_reg b in
        B.mov b i (B.imm 0);
        B.while_ b Ast.C_lt
          (fun _ -> (B.reg i, B.reg limit))
          (fun b -> B.binop b Ast.B_add i (B.reg i) (B.imm 1));
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        B.st b (B.reg a) (B.reg i))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  for t = 0 to 7 do
    Alcotest.(check int64)
      (Printf.sprintf "thread %d trips" t)
      (Int64.of_int (t + 1))
      (read_out m !base t)
  done

let test_exec_max_steps () =
  let _, r =
    run_kernel
      (fun b ->
        let l = B.fresh_label b in
        B.place_label b l;
        B.bra ~uni:true b l)
      (fun m ->
        let base = Simt.Machine.alloc_global m 16 in
        [| Int64.of_int base |])
  in
  ignore r;
  let m2 = Simt.Machine.create ~layout:lay () in
  let b = B.create ~params:[ "out" ] "spin" in
  let l = B.fresh_label b in
  B.place_label b l;
  B.bra ~uni:true b l;
  let k = B.finish b in
  let base = Simt.Machine.alloc_global m2 16 in
  let r2 = Simt.Machine.launch ~max_steps:1000 m2 k [| Int64.of_int base |] in
  match r2.Simt.Machine.status with
  | Simt.Machine.Max_steps _ | Simt.Machine.Deadline _ -> ()
  | Simt.Machine.Completed -> Alcotest.fail "infinite loop terminated?!"

let test_exec_wrong_arity () =
  let m = Simt.Machine.create ~layout:lay () in
  let b = B.create ~params:[ "a"; "b" ] "two" in
  B.ret b;
  let k = B.finish b in
  Alcotest.(check bool) "arity mismatch rejected" true
    (match Simt.Machine.launch m k [| 0L |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exec_deterministic () =
  let run () =
    let m = Simt.Machine.create ~layout:lay () in
    let b = B.create ~params:[ "out" ] "det" in
    let old = B.fresh_reg b in
    B.atom b Ast.A_add old (B.sym "out") (B.imm 1);
    let g = B.global_tid b in
    let a = B.fresh_reg ~cls:"rd" b in
    B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
    B.st b ~offset:4 (B.reg a) (B.reg old);
    let k = B.finish b in
    let base = Simt.Machine.alloc_global m 256 in
    let events = ref [] in
    let _ =
      Simt.Machine.launch m k [| Int64.of_int base |] ~on_event:(fun e ->
          events := Format.asprintf "%a" Simt.Event.pp e :: !events)
    in
    !events
  in
  Alcotest.(check (list string)) "event streams identical" (run ()) (run ())

let test_exec_guarded_ret_divergence () =
  (* odd lanes retire inside a divergent path; the surviving lanes must
     still reconverge, write, and reach the barrier without hanging *)
  let base = ref 0 in
  let m, r =
    run_kernel
      (fun b ->
        let parity = B.fresh_reg b in
        B.binop b Ast.B_and parity (Ast.Sreg Ast.Tid) (B.imm 1);
        let p = B.fresh_reg ~cls:"p" b in
        B.setp b Ast.C_ne p (B.reg parity) (B.imm 0);
        B.emit ~guard:(true, p) b Ast.Ret;
        let g = B.global_tid b in
        let a = B.fresh_reg ~cls:"rd" b in
        B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
        B.st b (B.reg a) (B.imm 9))
      (fun m ->
        base := Simt.Machine.alloc_global m 256;
        [| Int64.of_int !base |])
  in
  Alcotest.(check bool) "completed" true
    (r.Simt.Machine.status = Simt.Machine.Completed);
  Alcotest.(check int64) "even lane wrote" 9L (read_out m !base 0);
  Alcotest.(check int64) "odd lane retired silently" 0L (read_out m !base 1)

let test_detector_survives_retired_paths () =
  (* all lanes of a divergent path retire: the detector must stay in
     sync with the SIMT stack (mask-0 pops are still events) *)
  let lay = Vclock.Layout.make ~warp_size:4 ~threads_per_block:8 ~blocks:1 in
  let m = Simt.Machine.create ~layout:lay () in
  let b = B.create ~params:[ "out" ] "retire_path" in
  B.if_ b Ast.C_lt (Ast.Sreg Ast.Tid) (B.imm 2) (fun b -> B.ret b);
  let g = B.global_tid b in
  let a = B.fresh_reg ~cls:"rd" b in
  B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
  B.st b (B.reg a) (Ast.Sreg Ast.Tid);
  let k = B.finish b in
  let out = Simt.Machine.alloc_global m 256 in
  let r = Gpu_runtime.Session.run_stream ~machine:m k [| Int64.of_int out |] in
  Alcotest.(check bool) "completed" true
    (r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
    = Simt.Machine.Completed);
  Alcotest.(check bool) "no race" false
    (Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report)

let prop_generated_kernels_complete =
  QCheck2.Test.make ~name:"generated kernels run to completion" ~count:200
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let m = Simt.Machine.create ~layout:Gen.layout () in
      let k = Gen.kernel_of_program prog in
      let args = Gen.setup m in
      let r = Simt.Machine.launch ~max_steps:200_000 m k args in
      r.Simt.Machine.status = Simt.Machine.Completed)

let suite =
  [
    Alcotest.test_case "memory widths" `Quick test_memory_widths;
    Alcotest.test_case "stack diverge/pop" `Quick test_stack_diverge_pop;
    Alcotest.test_case "stack retire" `Quick test_stack_retire;
    Alcotest.test_case "stack invalid diverge" `Quick test_stack_invalid_diverge;
    Alcotest.test_case "exec arithmetic" `Quick test_exec_arithmetic;
    Alcotest.test_case "exec divergence" `Quick test_exec_divergence_and_selp;
    Alcotest.test_case "exec atomics serialize" `Quick test_exec_atomics_serialize;
    Alcotest.test_case "exec cas/exch" `Quick test_exec_cas_exch;
    Alcotest.test_case "exec barrier phases" `Quick test_exec_barrier_phases;
    Alcotest.test_case "exec barrier divergence" `Quick
      test_exec_barrier_divergence_flag;
    Alcotest.test_case "exec special registers" `Quick test_exec_special_registers;
    Alcotest.test_case "exec loop trip counts" `Quick test_exec_loop_trip_counts;
    Alcotest.test_case "exec max steps" `Quick test_exec_max_steps;
    Alcotest.test_case "exec wrong arity" `Quick test_exec_wrong_arity;
    Alcotest.test_case "exec guarded ret divergence" `Quick
      test_exec_guarded_ret_divergence;
    Alcotest.test_case "detector survives retired paths" `Quick
      test_detector_survives_retired_paths;
    Alcotest.test_case "exec deterministic" `Quick test_exec_deterministic;
  ]
  @ List.map Gen.to_alcotest [ prop_generated_kernels_complete ]
