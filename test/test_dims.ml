(* 2-D / 3-D grid support: dimensioned special registers resolve
   against the layout's block and grid shapes, and race detection works
   unchanged on multi-dimensional kernels (flat thread ids underneath,
   as on real hardware). *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Layout = Vclock.Layout

let lay2d =
  Layout.make_dims ~warp_size:8
    ~block_dim:{ Layout.x = 4; y = 4; z = 1 }
    ~grid_dim:{ Layout.x = 2; y = 2; z = 1 }

let test_layout_dims () =
  Alcotest.(check int) "threads per block" 16 lay2d.Layout.threads_per_block;
  Alcotest.(check int) "blocks" 4 lay2d.Layout.blocks;
  let c = Layout.thread_coords lay2d 7 in
  Alcotest.(check int) "thread 7 x" 3 c.Layout.x;
  Alcotest.(check int) "thread 7 y" 1 c.Layout.y;
  let c = Layout.thread_coords lay2d 21 in
  (* tid 21 = in-block 5 of block 1 *)
  Alcotest.(check int) "thread 21 x" 1 c.Layout.x;
  Alcotest.(check int) "thread 21 y" 1 c.Layout.y;
  let b = Layout.block_coords lay2d 3 in
  Alcotest.(check int) "block 3 bx" 1 b.Layout.x;
  Alcotest.(check int) "block 3 by" 1 b.Layout.y

let test_layout_3d () =
  let lay =
    Layout.make_dims ~warp_size:4
      ~block_dim:{ Layout.x = 2; y = 2; z = 2 }
      ~grid_dim:{ Layout.x = 1; y = 1; z = 3 }
  in
  Alcotest.(check int) "tpb" 8 lay.Layout.threads_per_block;
  Alcotest.(check int) "blocks" 3 lay.Layout.blocks;
  let c = Layout.thread_coords lay 6 in
  Alcotest.(check int) "z coord" 1 c.Layout.z;
  Alcotest.(check int) "y coord" 1 c.Layout.y;
  Alcotest.(check int) "x coord" 0 c.Layout.x

(* out[(bx*4+x) + 8*(by*4+y)] = 100*y + x: a 2-D coordinate kernel *)
let coord_kernel =
  let b = B.create ~params:[ "out" ] "coords2d" in
  let gx = B.fresh_reg b in
  B.mad b gx (Ast.Sreg Ast.Ctaid) (Ast.Sreg Ast.Ntid) (Ast.Sreg Ast.Tid);
  let gy = B.fresh_reg b in
  B.mad b gy (Ast.Sreg Ast.Ctaid_y) (Ast.Sreg Ast.Ntid_y) (Ast.Sreg Ast.Tid_y);
  let idx = B.fresh_reg b in
  B.mad b idx (B.reg gy) (B.imm 8) (B.reg gx);
  let addr = B.fresh_reg ~cls:"rd" b in
  B.mad b addr (B.reg idx) (B.imm 4) (B.sym "out");
  let v = B.fresh_reg b in
  B.mad b v (Ast.Sreg Ast.Tid_y) (B.imm 100) (Ast.Sreg Ast.Tid);
  B.st b (B.reg addr) (B.reg v);
  B.finish b

let test_2d_kernel_executes () =
  let m = Simt.Machine.create ~layout:lay2d () in
  let out = Simt.Machine.alloc_global m (4 * 64) in
  let r = Simt.Machine.launch m coord_kernel [| Int64.of_int out |] in
  Alcotest.(check bool) "completed" true
    (r.Simt.Machine.status = Simt.Machine.Completed);
  (* global pixel (gx, gy) = (5, 2): block (1, 0), thread (1, 2) *)
  Alcotest.(check int64) "pixel (5,2)" 201L
    (Simt.Machine.peek m ~addr:(out + (4 * ((2 * 8) + 5))) ~width:4);
  (* pixel (2, 6): block (0, 1), thread (2, 2) *)
  Alcotest.(check int64) "pixel (2,6)" 202L
    (Simt.Machine.peek m ~addr:(out + (4 * ((6 * 8) + 2))) ~width:4)

let test_2d_kernel_race_free () =
  let m = Simt.Machine.create ~layout:lay2d () in
  let out = Simt.Machine.alloc_global m (4 * 64) in
  let r =
    Gpu_runtime.Session.run_stream ~machine:m coord_kernel
      [| Int64.of_int out |]
  in
  Alcotest.(check bool) "distinct pixels: no race" false
    (Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report)

(* every thread writes out[gx]: threads in different rows collide *)
let columns_kernel =
  let b = B.create ~params:[ "out" ] "columns" in
  let gx = B.fresh_reg b in
  B.mad b gx (Ast.Sreg Ast.Ctaid) (Ast.Sreg Ast.Ntid) (Ast.Sreg Ast.Tid);
  let addr = B.fresh_reg ~cls:"rd" b in
  B.mad b addr (B.reg gx) (B.imm 4) (B.sym "out");
  B.st b (B.reg addr) (Ast.Sreg Ast.Tid_y);
  B.finish b

let columns_races ?inst () =
  let m = Simt.Machine.create ~layout:lay2d () in
  let out = Simt.Machine.alloc_global m (4 * 64) in
  let r =
    Gpu_runtime.Session.run_stream
      ~detector:
        { Barracuda.Detector.default_config with max_reports = 100_000 }
      ?inst ~machine:m columns_kernel [| Int64.of_int out |]
  in
  Barracuda.Report.race_count r.Gpu_runtime.Session.sr_report

let test_2d_column_conflict_detected () =
  Alcotest.(check bool) "row collision detected" true (columns_races () > 0)

(* The store's slot-per-thread proof is written over %tid.x and
   %ctaid.x, which the rows of a 2-D launch share: its plan drops the
   store on a 1-D launch only, so the instrumented run logs it here
   and finds check's races. *)
let test_2d_instrumented_run_races () =
  let plan = Static.Plan.of_kernel columns_kernel in
  let store = Array.length columns_kernel.Ast.body - 2 in
  Alcotest.(check bool) "dropped on a 1-D launch" true
    (Static.Plan.drops plan ~layout:Service.Exec.default_layout).(store);
  Alcotest.(check bool) "kept on a 2-D launch" false
    (Array.exists Fun.id (Static.Plan.drops plan ~layout:lay2d));
  Alcotest.(check int) "check" 224 (columns_races ());
  Alcotest.(check int) "instrumented run" 224
    (columns_races
       ~inst:(Instrument.Pass.instrument ~layout:lay2d columns_kernel)
       ())

(* A BAWS header states a 1-D layout only: a 2-D recording is refused
   before anything is written. *)
let test_2d_recording_refused () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda-dims-%d.baws" (Unix.getpid ()))
  in
  (match Gpu_runtime.Stream.write_file path ~layout:lay2d (Buffer.create 0) with
  | () -> Alcotest.fail "a 2-D layout was written into a 1-D header"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

let test_sregs_parse_and_print () =
  let k =
    Ptx.Parser.kernel_of_string
      ".entry k (.param .u64 a) { mov.u32 %r1, %tid.y; mov.u32 %r2, %ctaid.z; ret; }"
  in
  (match k.Ast.body.(0).Ast.kind with
  | Ast.Mov { src = Ast.Sreg Ast.Tid_y; _ } -> ()
  | _ -> Alcotest.fail "%tid.y mis-parsed");
  (match k.Ast.body.(1).Ast.kind with
  | Ast.Mov { src = Ast.Sreg Ast.Ctaid_z; _ } -> ()
  | _ -> Alcotest.fail "%ctaid.z mis-parsed");
  let k2 = Ptx.Parser.kernel_of_string (Ptx.Printer.kernel_to_string k) in
  Alcotest.(check bool) "roundtrip" true
    (k.Ast.body.(0).Ast.kind = k2.Ast.body.(0).Ast.kind)

let suite =
  [
    Alcotest.test_case "2d layout coordinates" `Quick test_layout_dims;
    Alcotest.test_case "3d layout coordinates" `Quick test_layout_3d;
    Alcotest.test_case "2d kernel executes" `Quick test_2d_kernel_executes;
    Alcotest.test_case "2d kernel race-free" `Quick test_2d_kernel_race_free;
    Alcotest.test_case "2d column conflict detected" `Quick
      test_2d_column_conflict_detected;
    Alcotest.test_case "dimensioned sregs parse/print" `Quick
      test_sregs_parse_and_print;
    Alcotest.test_case "2d instrumented run finds check's races" `Quick
      test_2d_instrumented_run_races;
    Alcotest.test_case "2d recording refused" `Quick test_2d_recording_refused;
  ]
