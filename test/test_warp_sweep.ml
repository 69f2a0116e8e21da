(* Warp-size sweeping (the §3.1 future-work extension): kernels that
   silently rely on warp lockstep are clean at the native width and
   racy at narrower simulated widths. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Sweep = Gpu_runtime.Warp_sweep

let tpb = 64
let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:tpb ~blocks:1

(* a 2-level warp-synchronous reduction: the second level reads cells
   the first level wrote, with no barrier between — ordered only by
   warp lockstep at width >= 16 *)
let warpsync_kernel =
  let b = B.create ~params:[ "input" ] ~shared:[ ("sums", tpb * 4) ] "wsr" in
  let tid = Ast.Sreg Ast.Tid in
  let sa = B.fresh_reg ~cls:"rd" b in
  B.mad b sa tid (B.imm 4) (B.sym "sums");
  B.st ~space:Ast.Shared b (B.reg sa) tid;
  B.bar b;
  B.if_ b Ast.C_lt tid (B.imm 16) (fun b ->
      let add_level stride =
        let theirs = B.fresh_reg ~cls:"rd" b in
        B.binop b Ast.B_add theirs (B.reg sa) (B.imm (4 * stride));
        let v = B.fresh_reg b in
        B.ld ~space:Ast.Shared b v (B.reg theirs);
        let mine = B.fresh_reg b in
        B.ld ~space:Ast.Shared b mine (B.reg sa);
        B.binop b Ast.B_add mine (B.reg mine) (B.reg v);
        B.st ~space:Ast.Shared b (B.reg sa) (B.reg mine)
      in
      add_level 16;
      add_level 8);
  B.finish b

(* a properly barriered version of the same reduction *)
let barriered_kernel =
  let b = B.create ~params:[ "input" ] ~shared:[ ("sums", tpb * 4) ] "bsr" in
  let tid = Ast.Sreg Ast.Tid in
  let sa = B.fresh_reg ~cls:"rd" b in
  B.mad b sa tid (B.imm 4) (B.sym "sums");
  B.st ~space:Ast.Shared b (B.reg sa) tid;
  B.bar b;
  B.if_ b Ast.C_lt tid (B.imm 16) (fun b ->
      let theirs = B.fresh_reg ~cls:"rd" b in
      B.binop b Ast.B_add theirs (B.reg sa) (B.imm (4 * 16));
      let v = B.fresh_reg b in
      B.ld ~space:Ast.Shared b v (B.reg theirs);
      let mine = B.fresh_reg b in
      B.ld ~space:Ast.Shared b mine (B.reg sa);
      B.binop b Ast.B_add mine (B.reg mine) (B.reg v);
      B.st ~space:Ast.Shared b (B.reg sa) (B.reg mine));
  B.bar b;
  B.finish b

let setup m = [| Int64.of_int (Simt.Machine.alloc_global m 256) |]

let find_verdict r ws =
  List.find
    (fun (v : Sweep.verdict) -> v.Sweep.warp_size = ws)
    r.Sweep.verdicts

let test_latent_assumption_found () =
  let r = Sweep.sweep ~layout ~setup warpsync_kernel in
  Alcotest.(check bool) "latent flag" true r.Sweep.latent;
  Alcotest.(check int) "clean at warp 32" 0
    (find_verdict r 32).Sweep.races;
  Alcotest.(check int) "clean at warp 16" 0
    (find_verdict r 16).Sweep.races;
  Alcotest.(check bool) "racy at warp 8" true
    ((find_verdict r 8).Sweep.races > 0);
  Alcotest.(check bool) "racy at warp 4" true
    ((find_verdict r 4).Sweep.races > 0)

let test_portable_kernel_clean_everywhere () =
  (* the reduction above uses one level at stride 16; with the accesses
     ordered by the lockstep at warp 32 but a genuine cross-warp race
     below.  The version with no reliance on lockstep is clean at every
     width: here the reads cross the barrier. *)
  ignore barriered_kernel;
  let b = B.create ~params:[ "out" ] "disjoint" in
  let g = B.global_tid b in
  let a = B.fresh_reg ~cls:"rd" b in
  B.mad b a (B.reg g) (B.imm 4) (B.sym "out");
  B.st b (B.reg a) (Ast.Sreg Ast.Tid);
  let k = B.finish b in
  let r = Sweep.sweep ~layout ~setup k in
  Alcotest.(check bool) "no latent flag" false r.Sweep.latent;
  List.iter
    (fun (v : Sweep.verdict) ->
      Alcotest.(check int)
        (Printf.sprintf "clean at warp %d" v.Sweep.warp_size)
        0 v.Sweep.races)
    r.Sweep.verdicts

let test_racy_everywhere_not_latent () =
  let b = B.create ~params:[ "out" ] "allracy" in
  B.st b (B.sym "out") (Ast.Sreg Ast.Tid);
  let k = B.finish b in
  let r = Sweep.sweep ~layout ~setup k in
  Alcotest.(check bool) "racy at every width, so not latent" false
    r.Sweep.latent;
  List.iter
    (fun (v : Sweep.verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "racy at warp %d" v.Sweep.warp_size)
        true
        (v.Sweep.races > 0))
    r.Sweep.verdicts

let test_sweep_includes_native_width () =
  let lay5 = Vclock.Layout.make ~warp_size:5 ~threads_per_block:10 ~blocks:1 in
  let b = B.create ~params:[ "out" ] "tiny" in
  B.ret b;
  let k = B.finish b in
  let swept layout =
    List.map
      (fun (v : Sweep.verdict) -> v.Sweep.warp_size)
      (Sweep.sweep ~layout ~setup k).Sweep.verdicts
  in
  Alcotest.(check bool) "native width swept" true (List.mem 5 (swept lay5));
  (* a record carries 32 lanes: a wider warp is neither swept nor
     accepted by the detector *)
  let lay33 = Vclock.Layout.make ~warp_size:33 ~threads_per_block:66 ~blocks:1 in
  Alcotest.(check (list int)) "widths capped at the record" [ 4; 8; 16; 32 ]
    (swept lay33);
  let m = Simt.Machine.create ~layout:lay33 () in
  match Gpu_runtime.Session.run_stream ~machine:m k (setup m) with
  | _ -> Alcotest.fail "a 33-lane layout was checked"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "latent assumption found" `Quick
      test_latent_assumption_found;
    Alcotest.test_case "portable kernel clean" `Quick
      test_portable_kernel_clean_everywhere;
    Alcotest.test_case "racy everywhere is not latent" `Quick
      test_racy_everywhere_not_latent;
    Alcotest.test_case "native width included" `Quick
      test_sweep_includes_native_width;
  ]
