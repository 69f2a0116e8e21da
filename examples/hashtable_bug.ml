(* The hashtable case study from the paper's §6.3.

     dune exec examples/hashtable_bug.exe

   The GPU-TM hashtable protects each bucket with a fine-grained lock,
   but (1) the lock-taking atomicCAS has no trailing fence, so the
   critical section can be reordered with it, and (2) the lock is
   released with a plain, unfenced store.  BARRACUDA reports races on
   the lock word, the bucket head and the cached entry — all in global
   memory, which shared-memory-only tools cannot see.

   The "fixed" variant fences the CAS and releases with a fenced
   atomicExch, and comes back clean. *)

module Ast = Ptx.Ast
module B = Ptx.Builder

let kernel ~fixed =
  let b =
    B.create
      ~params:[ "lock"; "head"; "entries" ]
      (if fixed then "hashtable_fixed" else "hashtable_buggy")
  in
  let g = B.global_tid b in
  B.if_ b Ast.C_eq (Ast.Sreg Ast.Tid) (B.imm 0) (fun b ->
      let got = B.fresh_reg b in
      B.mov b got (B.imm 0);
      B.while_ b Ast.C_eq
        (fun _ -> (B.reg got, B.imm 0))
        (fun b ->
          let old = B.fresh_reg b in
          B.atom_cas b old (B.sym "lock") (B.imm 0) (B.imm 1);
          B.if_ b Ast.C_eq (B.reg old) (B.imm 0) (fun b ->
              if fixed then B.membar b Ast.Gl;
              (* push an entry: entries[head++] = key *)
              let h = B.fresh_reg b in
              B.ld b h (B.sym "head");
              let slot = B.fresh_reg ~cls:"rd" b in
              B.mad b slot (B.reg h) (B.imm 4) (B.sym "entries");
              B.st b (B.reg slot) (B.reg g);
              let h2 = B.fresh_reg b in
              B.binop b Ast.B_add h2 (B.reg h) (B.imm 1);
              B.st b (B.sym "head") (B.reg h2);
              B.st b (B.sym "entries") (B.reg g);
              (if fixed then begin
                 (* release: fence + atomicExch *)
                 B.membar b Ast.Gl;
                 let o2 = B.fresh_reg b in
                 B.atom b Ast.A_exch o2 (B.sym "lock") (B.imm 0)
               end
               else
                 (* the bug: plain unfenced store *)
                 B.st b (B.sym "lock") (B.imm 0));
              B.mov b got (B.imm 1))));
  B.finish b

let run ~fixed =
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:32 ~blocks:2 in
  let machine = Simt.Machine.create ~layout () in
  let alloc n = Int64.of_int (Simt.Machine.alloc_global machine (4 * n)) in
  let lock = alloc 1 and head = alloc 1 and entries = alloc 64 in
  let k = kernel ~fixed in
  let report =
    (Gpu_runtime.Session.run_stream ~machine k [| lock; head; entries |])
      .Gpu_runtime.Session.sr_report
  in
  Format.printf "%-16s -> " k.Ptx.Ast.kname;
  if Barracuda.Report.has_race report then begin
    Format.printf "%d races:@." (Barracuda.Report.race_count report);
    List.iter
      (fun e -> Format.printf "    %a@." Barracuda.Report.pp_error e)
      (Barracuda.Report.errors report)
  end
  else Format.printf "race-free@.";
  Format.printf "    inserted entries: head=%Ld@."
    (Simt.Machine.peek machine ~addr:(Int64.to_int head) ~width:4)

let () =
  Format.printf "Fine-grained-lock hashtable (paper 6.3):@.@.";
  run ~fixed:false;
  Format.printf "@.";
  run ~fixed:true
