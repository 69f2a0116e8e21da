(* Quickstart: build a tiny CUDA-style kernel, run it under BARRACUDA,
   and read the race report.

     dune exec examples/quickstart.exe

   The kernel is the classic missing-__syncthreads bug: thread 0
   initializes a shared cell, every thread reads it back.  Adding the
   barrier makes the report come back clean. *)

module Ast = Ptx.Ast
module B = Ptx.Builder

let kernel ~with_barrier =
  let b =
    B.create ~params:[ "out" ]
      ~shared:[ ("cell", 4) ]
      (if with_barrier then "fixed" else "buggy")
  in
  (* if (threadIdx.x == 0) cell = 42; *)
  B.if_ b Ast.C_eq (Ast.Sreg Ast.Tid) (B.imm 0) (fun b ->
      B.st ~space:Ast.Shared b (B.sym "cell") (B.imm 42));
  if with_barrier then B.bar b;
  (* out[gtid] = cell; *)
  let v = B.fresh_reg b in
  B.ld ~space:Ast.Shared b v (B.sym "cell");
  let gtid = B.global_tid b in
  let addr = B.fresh_reg ~cls:"rd" b in
  B.mad b addr (B.reg gtid) (B.imm 4) (B.sym "out");
  B.st b (B.reg addr) (B.reg v);
  B.finish b

let run ~with_barrier =
  let k = kernel ~with_barrier in
  Format.printf "--- kernel %s ---@.%s@." k.Ast.kname
    (Ptx.Printer.kernel_to_string k);
  (* a grid of 2 blocks x 64 threads *)
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2 in
  let machine = Simt.Machine.create ~layout () in
  let out = Simt.Machine.alloc_global machine (4 * 128) in
  let result =
    Gpu_runtime.Session.run_stream ~machine k [| Int64.of_int out |]
  in
  Format.printf "executed %d warp instructions@."
    result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.dyn_instructions;
  let report = result.Gpu_runtime.Session.sr_report in
  if Barracuda.Report.has_race report then begin
    Format.printf "@{<bold>RACES DETECTED@} (%d distinct):@."
      (Barracuda.Report.race_count report);
    List.iteri
      (fun i err ->
        if i < 5 then
          Format.printf "  %a@." Barracuda.Report.pp_error err)
      (Barracuda.Report.errors report);
    Format.printf "  ...@."
  end
  else Format.printf "no races detected.@."

let () =
  run ~with_barrier:false;
  Format.printf "@.";
  run ~with_barrier:true
