(* Latent warp-size assumptions (the future-work extension of §3.1).

     dune exec examples/warp_portability.exe

   The kernel below is the classic "warp-synchronous" reduction: the
   final tree-reduction levels run without __syncthreads because all
   participating threads share one 32-wide warp, whose lockstep
   execution orders each level.  On a machine with 32-thread warps
   BARRACUDA correctly finds no race — but sweep the simulated warp
   size and the same kernel races at width 16 and below, revealing the
   baked-in portability hazard ("portable CUDA code should eschew
   assumptions about warp size"). *)

module Ast = Ptx.Ast
module B = Ptx.Builder

let tpb = 64

(* sums[0..63] reduced into sums[0]: barriers down to 32 threads, then
   warp-synchronous (barrier-free) levels 16, 8, 4, 2, 1. *)
let kernel =
  let b =
    B.create ~params:[ "input"; "out" ]
      ~shared:[ ("sums", tpb * 4) ]
      "warpsync_reduce"
  in
  let tid = Ast.Sreg Ast.Tid in
  let g = B.global_tid b in
  let v = B.fresh_reg b in
  let addr = B.fresh_reg ~cls:"rd" b in
  B.mad b addr (B.reg g) (B.imm 4) (B.sym "input");
  B.ld b v (B.reg addr);
  let sa = B.fresh_reg ~cls:"rd" b in
  B.mad b sa tid (B.imm 4) (B.sym "sums");
  B.st ~space:Ast.Shared b (B.reg sa) (B.reg v);
  (* the barriered level: 64 -> 32 *)
  B.bar b;
  B.if_ b Ast.C_lt tid (B.imm 32) (fun b ->
      let mine = B.fresh_reg ~cls:"rd" b in
      B.mad b mine tid (B.imm 4) (B.sym "sums");
      let add_level stride =
        let theirs = B.fresh_reg ~cls:"rd" b in
        B.binop b Ast.B_add theirs (B.reg mine) (B.imm (4 * stride));
        let a = B.fresh_reg b in
        B.ld ~space:Ast.Shared b a (B.reg mine);
        let c = B.fresh_reg b in
        B.ld ~space:Ast.Shared b c (B.reg theirs);
        let s = B.fresh_reg b in
        B.binop b Ast.B_add s (B.reg a) (B.reg c);
        B.st ~space:Ast.Shared b (B.reg mine) (B.reg s)
      in
      (* warp-synchronous levels: NO barriers *)
      List.iter add_level [ 32; 16; 8; 4; 2; 1 ]);
  B.bar b;
  B.if_ b Ast.C_eq tid (B.imm 0) (fun b ->
      let s = B.fresh_reg b in
      B.ld ~space:Ast.Shared b s (B.sym "sums");
      let oa = B.fresh_reg ~cls:"rd" b in
      B.mad b oa (Ast.Sreg Ast.Ctaid) (B.imm 4) (B.sym "out");
      B.st b (B.reg oa) (B.reg s));
  B.finish b

let () =
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:tpb ~blocks:2 in
  let setup m =
    let input = Simt.Machine.alloc_global m (4 * 128) in
    let out = Simt.Machine.alloc_global m 8 in
    for i = 0 to 127 do
      Simt.Machine.poke m ~addr:(input + (4 * i)) ~width:4 (Int64.of_int (i mod 5))
    done;
    [| Int64.of_int input; Int64.of_int out |]
  in
  Format.printf "Warp-synchronous reduction under simulated warp sizes:@.@.";
  let result = Gpu_runtime.Warp_sweep.sweep ~layout ~setup kernel in
  Format.printf "%a@." Gpu_runtime.Warp_sweep.pp result;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--debug" then begin
    let m = Simt.Machine.create ~layout () in
    let args = setup m in
    let r = Gpu_runtime.Session.run_stream ~machine:m kernel args in
    List.iter
      (fun e -> Format.printf "  %a@." Barracuda.Report.pp_error e)
      (Barracuda.Report.errors r.Gpu_runtime.Session.sr_report)
  end
