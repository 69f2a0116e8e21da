(* The SHOC BFS case study from the paper's §6.3.

     dune exec examples/bfs_shoc.exe

   The graph lives in global memory; frontier threads in different
   blocks relax a shared hub node's cost with plain stores and
   concurrently set a done-flag to 1.  Writes within a warp to one
   location are serialized by the hardware, but nothing is guaranteed
   across blocks: BARRACUDA reports inter-block write-write races on
   the hub costs and the flag.

   The fixed variant relaxes costs with atomicMin and raises the flag
   with atomicExch; atomic operations do not race with each other, and
   the report comes back clean. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module W = Workloads.Workload

let fixed_kernel =
  let b = B.create ~params:[ "frontier"; "cost"; "flag" ] "shoc_bfs_fixed" in
  let g = B.global_tid b in
  let fr = Workloads.Common.load_global b ~base:"frontier" (B.reg g) in
  B.if_ b Ast.C_ne (B.reg fr) (B.imm 0) (fun b ->
      let my_cost = Workloads.Common.load_global b ~base:"cost" (B.reg g) in
      let nc = B.fresh_reg b in
      B.binop b Ast.B_add nc (B.reg my_cost) (B.imm 1);
      let parity = B.fresh_reg b in
      B.binop b Ast.B_and parity (B.reg g) (B.imm 1);
      let hub = B.fresh_reg b in
      B.if_else b Ast.C_eq (B.reg parity) (B.imm 0)
        (fun b -> B.mov b hub (B.imm 64))
        (fun b -> B.mov b hub (B.imm 65));
      (* atomic relaxation instead of a plain store *)
      let haddr = B.fresh_reg ~cls:"rd" b in
      B.mad b haddr (B.reg hub) (B.imm 4) (B.sym "cost");
      let old = B.fresh_reg b in
      B.atom b Ast.A_min old (B.reg haddr) (B.reg nc);
      let o2 = B.fresh_reg b in
      B.atom b Ast.A_exch o2 (B.sym "flag") (B.imm 1));
  B.finish b

let report_of kernel =
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:32 ~blocks:2 in
  let machine = Simt.Machine.create ~layout () in
  let alloc n = Int64.of_int (Simt.Machine.alloc_global machine (4 * n)) in
  let frontier = alloc 64 and cost = alloc 66 and flag = alloc 1 in
  for i = 0 to 63 do
    Simt.Machine.poke machine
      ~addr:(Int64.to_int frontier + (4 * i))
      ~width:4 1L;
    Simt.Machine.poke machine ~addr:(Int64.to_int cost + (4 * i)) ~width:4
      (Int64.of_int (i / 32))
  done;
  (Gpu_runtime.Session.run_stream ~machine kernel [| frontier; cost; flag |])
    .Gpu_runtime.Session.sr_report

let show name report =
  Format.printf "%-16s -> " name;
  if Barracuda.Report.has_race report then begin
    Format.printf "%d races:@." (Barracuda.Report.race_count report);
    List.iter
      (fun e -> Format.printf "    %a@." Barracuda.Report.pp_error e)
      (Barracuda.Report.errors report)
  end
  else Format.printf "race-free@."

let () =
  Format.printf "SHOC breadth-first search (paper 6.3):@.@.";
  let buggy = Workloads.Registry.find "SHOC/bfs" in
  show "original" (W.run buggy).Gpu_runtime.Session.sr_report;
  Format.printf "@.";
  show "atomic fix" (report_of fixed_kernel)
