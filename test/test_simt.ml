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

(* The per-byte map that [Memory]'s pages replaced, kept as the model
   they must agree with. *)
module Byte_map = struct
  let create () : (int, int) Hashtbl.t = Hashtbl.create 64

  let read t ~addr ~width =
    let v = ref 0L in
    for i = width - 1 downto 0 do
      let byte =
        match Hashtbl.find_opt t (addr + i) with Some b -> b | None -> 0
      in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
    done;
    !v

  let write t ~addr ~width v =
    for i = 0 to width - 1 do
      let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      Hashtbl.replace t (addr + i) byte
    done

  let footprint = Hashtbl.length
end

type mem_op = Read of int * int | Write of int * int * int64

let print_mem_ops ops =
  String.concat "; "
    (List.map
       (function
         | Read (a, w) -> Printf.sprintf "read %d/%d" a w
         | Write (a, w, v) -> Printf.sprintf "write %d/%d %Ld" a w v)
       ops)

(* Addresses cluster around page boundaries (multiples of 256),
   negative ones included, so accesses straddle pages and reads hit
   both written and never-written bytes. *)
let gen_mem_ops =
  let open QCheck2.Gen in
  let addr =
    map2 (fun page d -> (page * 256) + d) (int_range (-3) 3) (int_range (-9) 9)
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  list_size (int_range 1 40)
    (oneof
       [
         map2 (fun a w -> Read (a, w)) addr width;
         map3 (fun a w v -> Write (a, w, v)) addr width int64;
       ])

let prop_memory_matches_byte_map =
  QCheck2.Test.make ~name:"memory pages agree with a byte map" ~count:500
    ~print:print_mem_ops gen_mem_ops (fun ops ->
      let m = Simt.Memory.create () and model = Byte_map.create () in
      List.for_all
        (fun op ->
          let same_value =
            match op with
            | Read (addr, width) ->
                Simt.Memory.read m ~addr ~width = Byte_map.read model ~addr ~width
            | Write (addr, width, v) ->
                Simt.Memory.write m ~addr ~width v;
                Byte_map.write model ~addr ~width v;
                true
          in
          same_value && Simt.Memory.footprint m = Byte_map.footprint model)
        ops)

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

(* ---- Pinned executions --------------------------------------------- *)

(* Every shipped kernel: the 26 Table 1 workloads and the bug suite. *)
let shipped_kernels =
  List.map
    (fun (w : Workloads.Workload.t) ->
      ("w_" ^ w.suite ^ "_" ^ w.name, w.layout, w.kernel, w.setup))
    Workloads.Registry.all
  @ List.map
      (fun (c : Bugsuite.Case.t) -> ("c_" ^ c.name, c.layout, c.kernel, c.setup))
      Bugsuite.Cases.all

(* One MD5 over four recorded runs of a kernel — plain, instrumented,
   under a seeded random schedule, and under a seeded machine-fault
   plan — each with its status and dynamic instruction count, plus the
   faults the plan applied. *)
let pin_digest index (layout, kernel, setup) =
  let runs = Buffer.create 256 in
  let run ?policy ?inst ?fault ?max_steps () =
    let capture = Buffer.create 4096 in
    let machine = Simt.Machine.create ?policy ~layout () in
    let args = setup machine in
    let r =
      Gpu_runtime.Session.run_stream ?inst ?fault ?max_steps ~capture ~machine
        kernel args
    in
    let mr = r.Gpu_runtime.Session.sr_machine_result in
    Printf.bprintf runs "%s %s %d\n"
      (Digest.to_hex (Digest.string (Buffer.contents capture)))
      (match mr.Simt.Machine.status with
      | Simt.Machine.Completed -> "completed"
      | Simt.Machine.Max_steps n -> Printf.sprintf "max_steps %d" n
      | Simt.Machine.Deadline n -> Printf.sprintf "deadline %d" n)
      mr.Simt.Machine.dyn_instructions
  in
  run ();
  run ~inst:(Instrument.Pass.instrument ~layout kernel) ();
  run ~policy:(Simt.Machine.Random 7) ();
  let plan =
    Fault.Plan.make
      {
        Fault.Plan.none with
        Fault.Plan.seed = index;
        reg_flips = 3;
        smem_flips = 3;
        fault_window = 40;
      }
  in
  run ~fault:plan ~max_steps:100_000 ();
  let i = Fault.Plan.injected plan in
  Printf.bprintf runs "%d %d %d %d %d %d %d %d\n" i.Fault.Plan.flips i.drops
    i.dups i.delays i.crashes i.shard_crashes i.reg_flips_applied
    i.smem_flips_applied;
  Digest.to_hex (Digest.string (Buffer.contents runs))

(* Computed with the interpreter this simulator replaced (per-byte
   hash-table memory, name-keyed registers): recordings, schedules and
   fault targets must not move.  The 17 Table 1 kernels whose
   instrumented run logs more since the static tier stopped assuming
   distinct pointer parameters never alias were re-pinned then; their
   plain, random-schedule and fault runs are unchanged. *)
let pinned =
  [
    ("w_Rodinia_bfs", "ec1d4ce0410f0fbb18e2e400aef9d61c");
    ("w_Rodinia_backprop", "b4986873687edf4924c7fe95b1077789");
    ("w_Rodinia_dwt2d", "19cfd94997894c7935dc4f725acdb053");
    ("w_Rodinia_gaussian", "53f07dc1c68d370ac91d724190bd989f");
    ("w_Rodinia_hotspot", "281945937e8098d969180eb7e768bf1a");
    ("w_Rodinia_hybridsort", "956825acc10824079f6530975fcae355");
    ("w_Rodinia_kmeans", "717eee9632e9786e0d367e6eedb4ae0f");
    ("w_Rodinia_lavamd", "6e7e9be3d33281061e3d5d95b861f4ac");
    ("w_Rodinia_needle", "878af8570f7beb550187742050a840d6");
    ("w_Rodinia_nn", "35f16c88073609f432211d99605baa56");
    ("w_Rodinia_pathfinder", "91397d16d34eebe5633e43c8015dfc84");
    ("w_Rodinia_streamcluster", "289ee05a6a3fd0a9a28f6dbf1e851a8e");
    ("w_SHOC_bfs", "a59bf93c8cdaa38df8cce9836536db70");
    ("w_GPU-TM_hashtable", "f8dfb5f7402680d9423b704d0be2fd8a");
    ("w_CUDA SDK_dxtc", "a31cce7369e9a9243cde849a97550ae0");
    ("w_CUDA SDK_threadfencered", "eb0d8103bebc5d83fe3ac6ea1087e5ce");
    ("w_CUB_block_radix_sort", "84c472b5ddf05cfb71b6dffd4326ddd5");
    ("w_CUB_block_reduce", "39260b6fcb22b2b40022101ef778fb23");
    ("w_CUB_block_scan", "cf32158a662c75de55915c28a3b7d936");
    ("w_CUB_d_partition_flagged", "6dd4f342773d94662ad60b5c0a92eca4");
    ("w_CUB_d_reduce", "8a26dd02efdb66f82d79ba8ccedf9627");
    ("w_CUB_d_scan", "bc5829033c65f10021d210d2796fb44d");
    ("w_CUB_d_select_flagged", "6654c2298b4794fb133b0df410c8f593");
    ("w_CUB_d_select_if", "4a0453dbd22a748ec4fe205dec0ad112");
    ("w_CUB_d_select_unique", "215410aea7024e13eb013541e7c26e12");
    ("w_CUB_d_sort_find_runs", "732439ec9a3ff7e9ed7d9b045033d104");
    ("c_ww_global_inter_block", "02b5e37f43e29237879fb895f4eb9afa");
    ("c_ww_global_inter_warp", "37edc8edf83193de166fd603db689b4c");
    ("c_ww_global_intra_warp_same_value", "400dd02211e57a572b0366ad720d9597");
    ("c_ww_global_intra_warp_diff_value", "790c9d77e0aebb484caadbbaa61c925a");
    ("c_ww_shared_inter_warp", "b48c1b7e5c96077e3833bd919a83f292");
    ("c_ww_shared_intra_warp_diff_value", "46803e61bf121f74556403ceebacbfef");
    ("c_ww_shared_intra_warp_same_value", "5f9137496e853c35d21a2a05d43d7124");
    ("c_ww_global_disjoint", "a8da0bacf0ac7c99952402c5b8777acf");
    ("c_ww_shared_disjoint", "4a63f69fb450d6cb74fbd58579a0afa6");
    ("c_rw_global_inter_block", "ee33bd8fe6cf80f40134a8a3e345f42c");
    ("c_rw_global_inter_warp", "c654990220fae2b41a8f5bc7e80e7b64");
    ("c_rw_shared_inter_warp", "7a13e52942a2be7063cdc75c4afc8256");
    ("c_rr_global", "82a799df314d6dcf4767ac35bacbc1ae");
    ("c_rw_same_thread", "1c981c8eece758d7cea4591c363cf7f0");
    ("c_bar_shared_handoff", "f489610c0c51d31b7a5119d80d97e4b2");
    ("c_nobar_shared_handoff", "a8344501f2e0a8428c47e8f3b5531af8");
    ("c_bar_global_same_block", "14219b676cceb3c0cc4f6e64ceb80b5b");
    ("c_bar_global_cross_block", "9609779cbe0beedb5458a8edef434d4d");
    ("c_double_barrier_phases", "6722d5e87f182eead9a8a36d5c66b0d4");
    ("c_barrier_divergence", "5d49426f1a233c63ad06a29417f45ad1");
    ("c_write_before_and_after_bar", "70e3caf4ec029c6b3281316be7110b1e");
    ("c_lockstep_orders_instructions", "4dbc943cdafa7c86293c03ade017ab22");
    ("c_branch_ordering_ww", "e861a77e54c76e3e2cabdfbcbe0261e9");
    ("c_branch_ordering_rw", "62066f5ec35c39aa112a9f6953d08526");
    ("c_branch_paths_disjoint", "617887edbff2c8999740a09accf6a468");
    ("c_nested_branch_conflict", "8690fb4638fb19ec93cbe3ee4488ee01");
    ("c_nested_branch_disjoint", "6af61c50fe719d804f7c9fd64e818161");
    ("c_reconvergence_orders", "5f4330b0de77e8ab7085be21db844e7f");
    ("c_pre_branch_write_in_branch_read", "29d9530636c02205f694373923780aa5");
    ("c_loop_divergence_conflict", "146ebc87f03dfedc82abce5a0684d1d5");
    ("c_atomics_dont_race", "b9db04a6ba7b9e83f157027f31e2eebb");
    ("c_atomic_vs_plain_write", "806c386d42ad2cfe71366157a46ece82");
    ("c_atomic_vs_plain_read", "f6cc02864dcf35ea55f2d7c92d37440d");
    ("c_atomics_dont_synchronize", "48719a5df1e1a01e6f82d057274130fd");
    ("c_atomic_histogram_then_bar", "045a53a04e916b8585178942f43538b9");
    ("c_lock_global_fenced", "b0cb4c5bfbe6197a4b316a18f60cdd05");
    ("c_lock_missing_acquire_fence", "e90e127816fc3ce562c64f6f26396b76");
    ("c_lock_unlock_plain_store", "c80d85eb3cb7e4142826210a9fdf4ffb");
    ("c_lock_cta_fence_cross_block", "b0cb4c5bfbe6197a4b316a18f60cdd05");
    ("c_lock_cta_fence_same_block", "80f2b6fa08d04565b21a24374f50a629");
    ("c_lock_protects_only_some_accesses", "6eb2650539b775ae4927e1c6c755e1be");
    ("c_two_locks_disjoint_data", "77d5747ef0963cbfeb12268200b8a140");
    ("c_flag_handoff_gl_gl", "10596e367e5ba3d231b878a0cc842c25");
    ("c_flag_handoff_no_writer_fence", "4f5575f26acd27bca13bf7ee5b45d9da");
    ("c_flag_handoff_no_reader_fence", "5679ee36409ba3b92d81077ac4908c40");
    ("c_flag_handoff_cta_cta_cross_block", "ce20606f3c5c48080371d99b71ccd00c");
    ("c_flag_handoff_gl_cta_cross_block", "10596e367e5ba3d231b878a0cc842c25");
    ("c_flag_handoff_cta_within_block", "776864ae667984dc2b4ef9ace4d98952");
    ("c_acqrel_atomic_chain", "5b50a72698c53ce4ec92f3c0474406a3");
    ("c_grid_barrier_fenced", "646b9ba344838af9cba5159deaf75eb3");
    ("c_grid_barrier_unfenced", "5be36dda41eff620de98157f05c2a167");
    ("c_sync_loc_reused_as_data_racy", "b7bbe8e154b1b828abf4ab3c6fc8e937");
    ("c_sync_loc_reused_after_barrier", "f5d9e38825f9810ffcd76b3284f042d9");
    ("c_overlap_word_vs_byte", "84d66065aebd4f19b3f53cacbbc57843");
    ("c_adjacent_bytes_disjoint", "791565f4f4b1f8b2d8418c6034bea3a7");
    ("c_misaligned_read_overlap", "3208be82c613b40352d7f2e3a1b152f3");
    ("c_wide_disjoint", "82f9cfe7097d252307a6c5013a4bc513");
    ("c_predicated_store_conflict", "50536731e6c25dcdf39de56a07af6c3b");
    ("c_partial_warp_disjoint", "d5ee12a28c8348866a8a16e3eaabac04");
    ("c_partial_warp_conflict", "97a2e542ebad431bd84aab5d29ecd021");
    ("c_bar_then_cross_block_conflict", "8d4ccc8aaa5c8f2a825f7112d530ddd8");
    ("c_exch_handoff_unfenced", "408ce50fa1120b48eaceed325ebf820d");
    ("c_transitive_release_chain", "7f2aca3ffed10b9d6b1fe1f0adad563d");
    ("c_transitive_chain_broken", "dc35eb9e6aa0a63ac33140d22029ffb1");
    ("c_read_only_kernel", "27a9c6cf1dbf661d7bdca63d7ac198bf");
    ("c_atomic_reduce_then_fenced_read", "d7ba3f2754a1c9f91d773bb5c97956e2");
  ]

let test_pinned_executions () =
  Alcotest.(check int) "every shipped kernel pinned" (List.length pinned)
    (List.length shipped_kernels);
  List.iteri
    (fun index (name, layout, kernel, setup) ->
      Alcotest.(check string) name (List.assoc name pinned)
        (pin_digest index (layout, kernel, setup)))
    shipped_kernels

(* A register flip picks among the registers its warp has touched, in
   name order.  Touched: read or written by some lane — a register read
   before any write counts; a [nop]'s guard, the operand [selp] does not
   pick ([%r7]) and the operands of an instruction whose guard leaves no
   lane active ([%r5], [%r6]) do not.  Sixty seeded plans, pinned like
   the shipped kernels above. *)
let touched_probe =
  {|.visible .entry touched_probe (.param .u64 out)
{
    setp.ne.s32 %p1, %tid.x, %tid.x;
    @%p9 nop;
    selp.u32 %r1, %r7, %r8, %p1;
    @%p1 add.s32 %r5, %r6, 1;
    add.s32 %r2, %r3, 1;
    mov.u32 %r4, 0;
LOOP:
    add.s32 %r4, %r4, 1;
    add.s32 %r1, %r1, %r2;
    setp.lt.s32 %p2, %r4, 12;
    @%p2 bra LOOP;
    mad.lo.s32 %r9, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rd1, %r9, 16, out;
    st.global.u32 [%rd1], %r1;
    st.global.u32 [%rd1+4], %r2;
    st.global.u32 [%rd1+8], %r4;
    st.global.u32 [%rd1+12], %r8;
    ret;
}
|}

let test_flips_follow_touched_set () =
  let kernel = Ptx.Parser.kernel_of_string touched_probe in
  let runs = Buffer.create 256 in
  for seed = 0 to 59 do
    let machine = Simt.Machine.create ~layout:lay () in
    let out = Simt.Machine.alloc_global machine 256 in
    let capture = Buffer.create 4096 in
    let plan =
      Fault.Plan.make
        { Fault.Plan.none with Fault.Plan.seed; reg_flips = 3; fault_window = 150 }
    in
    let r =
      Gpu_runtime.Session.run_stream ~fault:plan ~max_steps:20_000 ~capture ~machine
        kernel [| Int64.of_int out |]
    in
    Printf.bprintf runs "%s %d %d\n"
      (Digest.to_hex (Digest.string (Buffer.contents capture)))
      r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.dyn_instructions
      (Fault.Plan.injected plan).Fault.Plan.reg_flips_applied
  done;
  Alcotest.(check string) "sixty flipped runs" "117a08c3835cda76694a7552153a31de"
    (Digest.to_hex (Digest.string (Buffer.contents runs)))

(* One instrumented launch on a fresh device, as [profile], Figure 10
   and [Session.launch] run it (and daemon jobs did before they ran the
   plain kernel).  Every lane that logs owns a [.local] memory, so
   memory pages must stay small enough for the minor heap: the launch's
   major-heap allocation is the guard. *)
let test_daemon_job_allocation () =
  let c =
    List.find
      (fun (c : Bugsuite.Case.t) -> c.name = "ww_global_inter_block")
      Bugsuite.Cases.all
  in
  let inst = Instrument.Pass.instrument ~layout:c.layout c.kernel in
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let machine = Simt.Machine.create ~layout:c.layout () in
  let args = c.setup machine in
  ignore (Gpu_runtime.Session.run_stream ~inst ~machine c.kernel args);
  let _, _, major1 = Gc.counters () in
  let words = major1 -. major0 in
  if words >= 4096. then
    Alcotest.failf "one daemon-shaped job allocated %.0f major-heap words" words

let prop_generated_kernels_complete =
  QCheck2.Test.make ~name:"generated kernels run to completion" ~count:200
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let m = Simt.Machine.create ~layout:Gen.layout () in
      let k = Gen.kernel_of_program prog in
      let args = Gen.setup m in
      let r = Simt.Machine.launch ~max_steps:200_000 m k args in
      r.Simt.Machine.status = Simt.Machine.Completed)

(* ---- One program per kernel ----------------------------------------- *)

let memo () = Simt.Machine.memo_stats ()

(* A shipped kernel as source text, and its index in [shipped_kernels]. *)
let shipped_source name =
  let rec find i = function
    | [] -> Alcotest.failf "no shipped kernel %s" name
    | (n, layout, kernel, setup) :: _ when n = name ->
        (i, layout, Ptx.Printer.kernel_to_string kernel, setup)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 shipped_kernels

(* A fresh parse of a launched kernel is a memo hit on each of its four
   pinned launches (plain, instrumented, random schedule, fault plan),
   and runs exactly as the first parse did. *)
let test_fresh_parse_reuses_program () =
  let index, layout, src, setup = shipped_source "c_bar_shared_handoff" in
  let first = Ptx.Parser.kernel_of_string src in
  let d1 = pin_digest index (layout, first, setup) in
  let before = memo () in
  let fresh = Ptx.Parser.kernel_of_string src in
  Alcotest.(check bool) "a distinct kernel value" false (fresh == first);
  let d2 = pin_digest index (layout, fresh, setup) in
  let after = memo () in
  Alcotest.(check int) "no program built" before.Lru.misses after.Lru.misses;
  Alcotest.(check int) "four launches, four hits" (before.Lru.hits + 4)
    after.Lru.hits;
  Alcotest.(check string) "the same execution" d1 d2;
  Alcotest.(check string) "the pinned execution"
    (List.assoc "c_bar_shared_handoff" pinned) d2

(* Arguments are bound per launch, not into the program: one kernel
   launched twice on one machine with two output buffers and two
   values writes each launch's value to its own buffer. *)
let test_arguments_bound_per_launch () =
  let b = B.create ~params:[ "out"; "v" ] "bind" in
  let g = B.global_tid b in
  let x = B.fresh_reg b in
  B.binop b Ast.B_add x (B.reg g) (B.sym "v");
  let a = B.fresh_reg ~cls:"rd" b in
  B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
  B.st b (B.reg a) (B.reg x);
  let k = B.finish b in
  let m = Simt.Machine.create ~layout:lay () in
  let out1 = Simt.Machine.alloc_global m 64 in
  let out2 = Simt.Machine.alloc_global m 64 in
  let launch out v =
    let r = Simt.Machine.launch m k [| Int64.of_int out; v |] in
    Alcotest.(check bool) "completed" true
      (r.Simt.Machine.status = Simt.Machine.Completed)
  in
  launch out1 100L;
  let before = memo () in
  launch out2 200L;
  Alcotest.(check int) "the second launch hits" (before.Lru.hits + 1)
    (memo ()).Lru.hits;
  for i = 0 to 15 do
    Alcotest.(check int64) "first buffer, first value"
      (Int64.of_int (100 + i)) (read_out m out1 i);
    Alcotest.(check int64) "second buffer, second value"
      (Int64.of_int (200 + i)) (read_out m out2 i)
  done

(* An ill-formed kernel: a store through a symbol nothing declares. *)
let invalid_kernel () =
  let b = B.create ~params:[ "out" ] "invalid" in
  B.st b (B.sym "nowhere") (B.imm 1);
  B.finish b

let launch_error k args =
  let m = Simt.Machine.create ~layout:lay () in
  match Simt.Machine.launch m k args with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.fail "an invalid kernel launched"

(* A failed validation is not remembered: each launch validates again
   and raises the same error. *)
let test_invalid_kernel_not_remembered () =
  let k = invalid_kernel () in
  let before = memo () in
  let e1 = launch_error k [| 0L |] in
  let e2 = launch_error k [| 0L |] in
  let after = memo () in
  Alcotest.(check string) "the same error twice" e1 e2;
  Alcotest.(check bool) "the validation error" true
    (String.starts_with ~prefix:"kernel invalid is ill-formed" e1);
  Alcotest.(check int) "two builds, none kept" (before.Lru.misses + 2)
    after.Lru.misses;
  Alcotest.(check int) "nothing entered" before.Lru.entries after.Lru.entries

(* Validation runs before the argument count is checked. *)
let test_validation_before_arity () =
  let k = invalid_kernel () in
  let valid = launch_error k [| 0L |] in
  Alcotest.(check string) "wrong arity, the validation error" valid
    (launch_error k [| 0L; 1L; 2L |])

(* One program, four domains: a kernel no domain has launched yet, run
   through its four pinned launches on four domains at once, gives
   every domain the pinned execution. *)
let test_program_shared_across_domains () =
  let index, layout, src, setup = shipped_source "c_ww_shared_inter_warp" in
  let kernel =
    { (Ptx.Parser.kernel_of_string src) with Ast.kname = "four_domains" }
  in
  let digests =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> pin_digest index (layout, kernel, setup)))
    |> List.map Domain.join
  in
  List.iter
    (Alcotest.(check string) "the pinned execution"
       (List.assoc "c_ww_shared_inter_warp" pinned))
    digests

(* A conditional branch that can never reach an exit passes the
   instruction-level checks, but has no reconvergence point: both the
   simulator's program build and the instrumentation pass report it as
   an ill-formed kernel naming the branch, and the memo keeps nothing. *)
let test_branch_without_exit_ill_formed () =
  let k =
    Ptx.Parser.kernel_of_string
      {|.visible .entry spin ()
{
    setp.eq.s32 %p1, %tid.x, 0;
L:  @%p1 bra L;
    bra.uni L;
}|}
  in
  let expected =
    "kernel spin is ill-formed:\ninsn 1: conditional branch never reaches \
     an exit"
  in
  let before = memo () in
  Alcotest.(check string) "launch" expected (launch_error k [||]);
  Alcotest.(check string) "launch again" expected (launch_error k [||]);
  let after = memo () in
  Alcotest.(check int) "two builds, none kept" (before.Lru.misses + 2)
    after.Lru.misses;
  Alcotest.(check int) "nothing entered" before.Lru.entries after.Lru.entries;
  Alcotest.check_raises "instrument" (Invalid_argument expected) (fun () ->
      ignore (Instrument.Pass.instrument ~layout:lay k))

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
    Alcotest.test_case "pinned executions" `Quick test_pinned_executions;
    Alcotest.test_case "flips follow the touched set" `Quick
      test_flips_follow_touched_set;
    Alcotest.test_case "daemon job allocation" `Quick test_daemon_job_allocation;
  ]
  @ List.map Gen.to_alcotest
      [ prop_memory_matches_byte_map; prop_generated_kernels_complete ]
  @ [
      Alcotest.test_case "a fresh parse reuses the program" `Quick
        test_fresh_parse_reuses_program;
      Alcotest.test_case "arguments bound per launch" `Quick
        test_arguments_bound_per_launch;
      Alcotest.test_case "an invalid kernel is not remembered" `Quick
        test_invalid_kernel_not_remembered;
      Alcotest.test_case "validation before arity" `Quick
        test_validation_before_arity;
      Alcotest.test_case "one program, four domains" `Quick
        test_program_shared_across_domains;
      Alcotest.test_case "a branch that never exits is ill-formed" `Quick
        test_branch_without_exit_ill_formed;
    ]
