(* Core detector tests: rule-level unit scenarios, PTVC compression
   equivalence against full clocks, and the flagship property — the
   optimized detector, fed sealed wire records by
   [Session.run_stream] as [check] feeds it, and the literal-semantics
   reference report the same races on randomized kernels. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Report = Barracuda.Report
module Wc = Barracuda.Detector.Warp_clocks

let lay = Gen.layout

(* ---- Warp_clocks: compression vs full clocks ------------------------ *)

let test_wc_initial_state () =
  let wc = Wc.create lay ~warp:0 in
  Alcotest.(check int) "own clock" 1 (Wc.own_clock wc ~lane:0);
  Alcotest.(check int) "sibling entry" 0 (Wc.entry wc ~lane:0 ~tid:1);
  Alcotest.(check int) "other block entry" 0 (Wc.entry wc ~lane:0 ~tid:10);
  Alcotest.(check bool) "converged" true (Wc.format_of wc = Wc.Converged)

let test_wc_join_fork_advances () =
  let wc = Wc.create lay ~warp:0 in
  Wc.join_fork wc ~mask:0xF;
  Alcotest.(check int) "own advanced" 2 (Wc.own_clock wc ~lane:0);
  Alcotest.(check int) "siblings synchronized" 1 (Wc.entry wc ~lane:0 ~tid:1)

let test_wc_divergence_formats () =
  let wc = Wc.create lay ~warp:0 in
  Wc.join_fork wc ~mask:0xF;
  Wc.push_if wc ~then_mask:0x3 ~else_mask:0xC;
  Alcotest.(check bool) "diverged format" true (Wc.format_of wc = Wc.Diverged);
  (* the then path advanced; suspended lanes stay at the branch clock *)
  Alcotest.(check int) "active sibling" 2 (Wc.entry wc ~lane:0 ~tid:1);
  Alcotest.(check int) "suspended sibling frozen" 1 (Wc.entry wc ~lane:0 ~tid:2);
  Wc.pop_path wc ~mask:0xC;
  (* else path: must not see the then path's advance *)
  Alcotest.(check int) "else view of then lane" 1 (Wc.entry wc ~lane:2 ~tid:0);
  Wc.pop_path wc ~mask:0xF;
  Alcotest.(check bool) "back to converged" true (Wc.format_of wc = Wc.Converged)

let test_wc_overlay_sparse () =
  let wc = Wc.create lay ~warp:0 in
  let outside = Vclock.Cvc.set_point (Vclock.Cvc.bottom lay) 12 7 in
  Wc.acquire wc ~lane:1 outside;
  Alcotest.(check int) "acquired entry" 7 (Wc.entry wc ~lane:1 ~tid:12);
  Alcotest.(check int) "other lane unaffected" 0 (Wc.entry wc ~lane:0 ~tid:12);
  Alcotest.(check bool) "sparse format" true (Wc.format_of wc = Wc.Sparse_vc);
  (* a join spreads the overlay to the whole active set *)
  Wc.join_fork wc ~mask:0xF;
  Alcotest.(check int) "overlay propagated" 7 (Wc.entry wc ~lane:0 ~tid:12);
  Alcotest.(check bool) "still sparse after the join" true
    (Wc.format_of wc = Wc.Sparse_vc);
  (* a barrier with no block-wide overlay clears every lane's *)
  Wc.apply_barrier wc ~clock:(Wc.max_own wc) ~overlay:None;
  Alcotest.(check int) "overlay cleared" 0 (Wc.entry wc ~lane:1 ~tid:12);
  Alcotest.(check bool) "converged after the barrier" true
    (Wc.format_of wc = Wc.Converged)

let test_wc_barrier_block_clock () =
  let wc0 = Wc.create lay ~warp:0 in
  let wc1 = Wc.create lay ~warp:1 in
  Wc.join_fork wc0 ~mask:0xF;
  Wc.join_fork wc0 ~mask:0xF;
  let clock = max (Wc.max_own wc0) (Wc.max_own wc1) in
  Wc.apply_barrier wc0 ~clock ~overlay:None;
  Wc.apply_barrier wc1 ~clock ~overlay:None;
  (* lane 0 of warp 0 now sees warp 1's threads at the barrier clock *)
  Alcotest.(check int) "cross-warp entry" clock (Wc.entry wc0 ~lane:0 ~tid:4);
  Alcotest.(check int) "block clock" clock (Wc.block_clock wc0);
  Alcotest.(check int) "own past barrier" (clock + 1) (Wc.own_clock wc0 ~lane:0)

let test_wc_materialize_roundtrip () =
  let wc = Wc.create lay ~warp:0 in
  Wc.join_fork wc ~mask:0xF;
  Wc.push_if wc ~then_mask:0x5 ~else_mask:0xA;
  let cvc = Wc.materialize wc ~lane:0 in
  let full = Wc.to_vector_clock wc ~lane:0 in
  Alcotest.(check bool) "materialized clock equals expansion" true
    (Vclock.Vector_clock.equal (Vclock.Cvc.to_vector_clock cvc) full)

let test_wc_release_increment_breaks_uniformity () =
  let wc = Wc.create lay ~warp:0 in
  Wc.release_increment wc ~lane:2;
  Alcotest.(check int) "released lane ahead" 2 (Wc.own_clock wc ~lane:2);
  Alcotest.(check int) "others unchanged" 1 (Wc.own_clock wc ~lane:0);
  Wc.join_fork wc ~mask:0xF;
  (* renormalization catches everyone up past the max *)
  Alcotest.(check int) "renormalized" 3 (Wc.own_clock wc ~lane:0)

(* ---- Report --------------------------------------------------------- *)

let test_report_dedup_and_classes () =
  let r = Report.create ~layout:lay () in
  let loc = Gtrace.Loc.global 0 in
  Report.add_race r ~prev_insn:1 ~cur_insn:2 ~loc ~prev_tid:0
    ~prev_kind:Report.Write ~cur_tid:1 ~cur_kind:Report.Write
    ~same_instruction:false;
  Report.add_race r ~prev_insn:1 ~cur_insn:2 ~loc ~prev_tid:0
    ~prev_kind:Report.Write ~cur_tid:1 ~cur_kind:Report.Write
    ~same_instruction:false;
  Alcotest.(check int) "duplicates suppressed" 1 (Report.race_count r);
  Alcotest.(check bool) "intra-warp classification" true
    (Report.classify lay 0 1 = Report.Intra_warp);
  Alcotest.(check bool) "intra-block classification" true
    (Report.classify lay 0 5 = Report.Intra_block);
  Alcotest.(check bool) "inter-block classification" true
    (Report.classify lay 0 9 = Report.Inter_block)

let test_report_cap () =
  let r = Report.create ~max_reports:2 ~layout:lay () in
  for i = 0 to 9 do
    Report.add_race r ~prev_insn:(-1) ~cur_insn:(-1)
      ~loc:(Gtrace.Loc.global i) ~prev_tid:0 ~prev_kind:Report.Write
      ~cur_tid:1 ~cur_kind:Report.Write ~same_instruction:false
  done;
  Alcotest.(check int) "count sees all" 10 (Report.race_count r);
  Alcotest.(check int) "list capped" 2 (List.length (Report.errors r))

(* ---- Shadow --------------------------------------------------------- *)

module Shadow = Barracuda.Detector.Shadow

let global_cell s addr = Shadow.cell s ~space:Ptx.Ast.Global ~region:0 ~index:addr

let reads_bottom s c =
  Shadow.write_clock s c = 0
  && Shadow.write_insn s c = -1
  && Shadow.write_record s c = -1
  && Shadow.read_insn s c = -1
  && not (Shadow.has_read_vc s c)

let test_shadow_pages_on_demand () =
  let s = Shadow.create () in
  Alcotest.(check int) "no pages initially" 0 (Shadow.pages s);
  ignore (global_cell s 5);
  ignore (global_cell s 6);
  Alcotest.(check int) "one page" 1 (Shadow.pages s);
  Alcotest.(check int) "two cells" 2 (Shadow.cells s);
  ignore (Shadow.cell s ~space:Ptx.Ast.Shared ~region:1 ~index:5);
  Alcotest.(check int) "shared space gets its own page" 2 (Shadow.pages s);
  (* Each page is 64 word slots of 11 ints; a byte lookup gives it 256
     byte slots as well; each array has a one-word header. *)
  Alcotest.(check int) "bytes: two pages, each with its byte slots"
    ((2 * 8 * ((64 * 11) + 1)) + (2 * 8 * ((256 * 11) + 1)))
    (Shadow.bytes s);
  (* Every slot of a new page reads bottom; each lookup must still hand
     out a slot of its own, or a write through one would show up at
     every untouched location. *)
  let s = Shadow.create () in
  let c5 = global_cell s 5 in
  Shadow.set_write s c5 ~clock:3 ~tid:1 ~insn:7 ~atomic:false ~value_lo:0
    ~value_hi:0 ~record:1;
  let c6 = global_cell s 6 in
  Alcotest.(check bool) "cell 6 reads bottom" true (reads_bottom s c6);
  let c7 = global_cell s 7 in
  Alcotest.(check bool) "cell 7 reads bottom" true (reads_bottom s c7);
  Alcotest.(check bool) "distinct cells" true (c6 <> c7 && c6 <> c5 && c7 <> c5);
  Alcotest.(check int) "three cells" 3 (Shadow.cells s);
  (* a negative address, as an intact wire record may carry, still maps
     to a slot inside its page *)
  let cm = global_cell s (-3) in
  Alcotest.(check bool) "negative address gets a fresh cell" true
    (reads_bottom s cm);
  Alcotest.(check int) "in a page of its own" 2 (Shadow.pages s);
  Alcotest.(check int) "four cells" 4 (Shadow.cells s);
  let c5 = global_cell s 5 in
  Alcotest.(check (pair int int)) "cell 5 kept its write" (3, 7)
    (Shadow.write_clock s c5, Shadow.write_insn s c5)

(* Word summaries.  Through the detector, a single thread's aligned
   4-byte store holds one cell for its four bytes, and a 1-byte store
   into the word splits it into four byte cells.  In the shadow, the
   split copies every field into each byte, and gives each byte a read
   clock of its own. *)
let test_shadow_summary_split () =
  let one_thread =
    Vclock.Layout.make ~warp_size:1 ~threads_per_block:1 ~blocks:1
  in
  let stats stores =
    let b = Ptx.Builder.create ~params:[ "p" ] "summary" in
    List.iter
      (fun (width, offset) ->
        Ptx.Builder.st ~width ~offset b (Ptx.Builder.sym "p")
          (Ptx.Builder.imm 7))
      stores;
    let kernel = Ptx.Builder.finish b in
    let m = Simt.Machine.create ~layout:one_thread () in
    let args = [| Int64.of_int (Simt.Machine.alloc_global m 8) |] in
    let det =
      Barracuda.Detector.create ~layout:one_thread
        (Static.Plan.of_kernel kernel)
    in
    ignore
      (Gpu_runtime.Session.run_stream
         ~sink:(Gpu_runtime.Session.serial_sink det) ~machine:m kernel args);
    let st = Barracuda.Detector.stats det in
    ( st.Barracuda.Detector.accesses_checked,
      st.Barracuda.Detector.shadow_cells,
      st.Barracuda.Detector.shadow_byte_cells )
  in
  let counts = Alcotest.(triple int int int) in
  Alcotest.check counts "aligned word store: one check, one cell for 4 bytes"
    (1, 1, 4) (stats [ (4, 0) ]);
  Alcotest.check counts "then a byte store into it: 4 byte cells" (2, 4, 4)
    (stats [ (4, 0); (1, 2) ]);
  let s = Shadow.create () in
  let summary () = Shadow.summary s ~space:Ptx.Ast.Global ~region:0 ~index:8 in
  let w = summary () in
  Alcotest.(check bool) "an untouched aligned word gets a summary" true
    (w <> Shadow.none);
  Alcotest.(check (pair int int)) "one cell standing for 4 bytes" (1, 4)
    (Shadow.cells s, Shadow.byte_cells s);
  let vc = Vclock.Cvc.Mut.create lay in
  Vclock.Cvc.Mut.raise_point vc 1 3;
  Vclock.Cvc.Mut.raise_point vc 5 2;
  (* the write first: a write clears the reads *)
  Shadow.set_write s w ~clock:2 ~tid:6 ~insn:1 ~atomic:true ~value_lo:0x2A
    ~value_hi:1 ~record:9;
  Shadow.set_read_vc s w vc;
  Shadow.share_reads s w;
  Shadow.set_read s w ~clock:5 ~tid:3;
  Shadow.set_read_insn s w 4;
  let state c =
    ( ( Shadow.read_clock s c,
        Shadow.read_tid s c,
        Shadow.read_insn s c,
        Shadow.read_shared s c ),
      ( Shadow.write_clock s c,
        Shadow.write_tid s c,
        Shadow.write_insn s c,
        Shadow.write_atomic s c,
        Shadow.same_value s c ~lo:0x2A ~hi:1,
        Shadow.write_record s c ),
      Vclock.Cvc.Mut.freeze (Shadow.read_vc s c) )
  in
  let summarized = state w in
  let byte i = global_cell s (8 + i) in
  ignore (byte 2);
  Alcotest.(check (pair int int)) "a byte lookup splits it into 4 cells" (4, 4)
    (Shadow.cells s, Shadow.byte_cells s);
  let handles = List.map byte [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "four byte cells of their own" 4
    (List.length (List.sort_uniq compare handles));
  List.iter
    (fun i ->
      let (r, w, v) = state (byte i) in
      let (r', w', v') = summarized in
      Alcotest.(check bool)
        (Printf.sprintf "byte %d is a byte cell with the summary's state" i)
        true
        (r = r' && w = w' && Vclock.Cvc.equal v v'))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "the value compares all 64 bits" false
    (Shadow.same_value s (byte 0) ~lo:0x2A ~hi:0);
  Alcotest.(check bool) "the split word is no longer summarized" true
    (summary () = Shadow.none);
  Vclock.Cvc.Mut.raise_point (Shadow.read_vc s (byte 2)) 1 8;
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "byte %d's read clock is its own" i)
        3
        (Vclock.Cvc.Mut.get (Shadow.read_vc s (byte i)) 1))
    [ 0; 1; 3 ];
  Alcotest.(check int) "the raised byte moved" 8
    (Vclock.Cvc.Mut.get (Shadow.read_vc s (byte 2)) 1)

(* A cell is ints in a page, not a heap block: once the page exists,
   creating word summaries allocates nothing on the minor heap. *)
let test_shadow_summary_no_alloc () =
  let s = Shadow.create () in
  let summary index =
    ignore (Shadow.summary s ~space:Ptx.Ast.Global ~region:0 ~index)
  in
  summary 0;
  let before = Gc.minor_words () in
  for i = 1 to 15 do
    summary (4 * i)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check int) "15 new summaries" 16 (Shadow.cells s);
  Alcotest.(check int) "minor-heap words allocated" 0
    (int_of_float (after -. before))

(* ---- Detector vs Reference equivalence ------------------------------ *)

type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Report.access_kind;
  cur_tid : int;
  cur_kind : Report.access_kind;
}

let race_set report =
  Report.errors report
  |> List.filter_map (function
       | Report.Race r ->
           Some
             {
               loc = r.Report.loc;
               prev_tid = r.Report.prev_tid;
               prev_kind = r.Report.prev_kind;
               cur_tid = r.Report.cur_tid;
               cur_kind = r.Report.cur_kind;
             }
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

(* The deployed path: the uninstrumented kernel through the session
   core's serial sink, with no report cap in the way. *)
let detect prog =
  let k = Gen.kernel_of_program prog in
  let m = Simt.Machine.create ~layout:lay () in
  let args = Gen.setup m in
  let detector =
    { Barracuda.Detector.default_config with max_reports = 100000 }
  in
  (Gpu_runtime.Session.run_stream ~detector ~machine:m k args)
    .Gpu_runtime.Session.sr_report

let run_both prog =
  let k = Gen.kernel_of_program prog in
  let m1 = Simt.Machine.create ~layout:lay () in
  let args1 = Gen.setup m1 in
  let ops, _ = Gtrace.Infer.run ~layout:lay m1 k args1 in
  let reference = Barracuda.Reference.create ~max_reports:100000 ~layout:lay () in
  Barracuda.Reference.run reference ops;
  ( race_set (Barracuda.Reference.report reference),
    race_set (detect prog) )

let pp_race_key ppf k =
  Format.fprintf ppf "%a: %a t%d vs %a t%d" Gtrace.Loc.pp k.loc Report.pp_kind
    k.prev_kind k.prev_tid Report.pp_kind k.cur_kind k.cur_tid

let prop_detector_matches_reference =
  QCheck2.Test.make
    ~name:"optimized detector and reference semantics report identical races"
    ~count:400 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let ref_races, det_races = run_both prog in
      if ref_races = det_races then true
      else
        QCheck2.Test.fail_reportf
          "@[<v>mismatch!@,reference: %a@,detector:  %a@]"
          (Format.pp_print_list pp_race_key)
          ref_races
          (Format.pp_print_list pp_race_key)
          det_races)

let prop_detector_deterministic =
  QCheck2.Test.make ~name:"detector reports are deterministic" ~count:100
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let _, a = run_both prog in
      let _, b = run_both prog in
      a = b)

(* ---- PTVC census ------------------------------------------------------ *)

(* The census reads each access record's warp format, and warps that
   hold no overlay skip the scan for one; the counts must not move.
   Pinned, as they were before the skip: the four format counts and
   [ptvc_bytes] of every shipped kernel, and of 400 generated programs,
   whose acquires, releases and acq-rel atomics install overlays.
   Pinned once with every access checked (the empty plans) and once
   under the kernels' check plans, whose dropped records are never
   census-counted and never join their warp's clocks. *)
let census plan_of (layout, kernel, setup) =
  let m = Simt.Machine.create ~layout () in
  let args = setup m in
  let det =
    Barracuda.Detector.create ~layout (plan_of (Static.Plan.of_kernel kernel))
  in
  ignore
    (Gpu_runtime.Session.run_stream
       ~sink:(Gpu_runtime.Session.serial_sink det) ~machine:m kernel args);
  let st = Barracuda.Detector.stats det in
  Barracuda.Detector.
    [
      st.ptvc_converged;
      st.ptvc_diverged;
      st.ptvc_nested;
      st.ptvc_sparse;
      st.ptvc_bytes;
    ]

let test_ptvc_census_pinned () =
  let check label corpus (every, every_digest) (planned, planned_digest) =
    let pin what plan_of totals digest =
      let counts = List.map (census plan_of) corpus in
      Alcotest.(check (list int))
        (Printf.sprintf "%s, %s: converged, diverged, nested, sparse, PTVC bytes"
           label what)
        totals
        (List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0; 0 ] counts);
      Alcotest.(check string)
        (Printf.sprintf "%s, %s: per-kernel counts" label what)
        digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map
                    (fun c -> String.concat " " (List.map string_of_int c))
                    counts))))
    in
    pin "every access" Static.Plan.empty every every_digest;
    pin "under the plans" Fun.id planned planned_digest
  in
  check "92 shipped kernels"
    (List.map (fun (_, l, k, s) -> (l, k, s)) Test_simt.shipped_kernels)
    ([ 1786; 1098; 8; 62; 176928 ], "3063e01908cc32252bf4b35190746e1a")
    ([ 1484; 887; 8; 49; 176928 ], "365794c423aaebcdffbb48c8f6b950cb");
  let programs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 2026 |]) ~n:400
      Gen.gen_program
  in
  check "400 generated programs"
    (List.map (fun p -> (lay, Gen.kernel_of_program p, Gen.setup)) programs)
    ([ 4787; 2661; 223; 3051; 386240 ], "c5cfaace5bc8c564dad62a4b388b061d")
    ([ 4108; 2300; 202; 2722; 384608 ], "82e735d0b2b6e2bb83469699ad6f3392")

(* ---- Directed rule scenarios ---------------------------------------- *)

let test_rule_write_write () =
  let r = detect [ Gen.Global_store (0, Gen.Lane_dependent) ] in
  Alcotest.(check bool) "intra-warp ww detected" true (Report.has_race r)

let test_rule_same_value_filter () =
  let r = detect [ Gen.If_block [ Gen.Global_store (0, Gen.Const 1) ] ] in
  (* all lanes in each warp write 1 to the same word: filtered within a
     warp instruction, but warps/blocks still conflict... restrict to a
     single warp via tid<4 *)
  ignore r;
  let r2 =
    detect [ Gen.If_block [ Gen.If_tid_lt (4, [ Gen.Global_store (0, Gen.Const 1) ], []) ] ]
  in
  Alcotest.(check bool) "same-value intra-warp filtered" false
    (Report.has_race r2)

let test_rule_read_inflation () =
  (* concurrent readers then a writer: the read VC must catch all *)
  let r =
    detect [ Gen.Global_load 0; Gen.If_block [ Gen.If_tid_lt (1, [ Gen.Global_store (0, Gen.Const 2) ], []) ] ]
  in
  Alcotest.(check bool) "write after shared readers races" true
    (Report.has_race r)

let test_rule_atomics_no_race () =
  let r = detect [ Gen.Atomic_add 0 ] in
  Alcotest.(check bool) "atomic-atomic clean" false (Report.has_race r)

let test_rule_barrier_separates () =
  let r =
    detect
      [
        Gen.If_block [ Gen.If_tid_lt (1, [ Gen.Shared_store (0, Gen.Const 1) ], []) ];
        Gen.Barrier;
        Gen.Shared_load 0;
      ]
  in
  Alcotest.(check bool) "barrier orders shared handoff" false
    (Report.has_race r)

let test_rule_no_barrier_races () =
  let r =
    detect
      [
        Gen.If_block [ Gen.If_tid_lt (1, [ Gen.Shared_store (0, Gen.Const 1) ], []) ];
        Gen.Shared_load 0;
      ]
  in
  Alcotest.(check bool) "missing barrier detected" true (Report.has_race r)

(* [check]'s lines and a daemon reply's strings come from one
   definition, pinned here for each error shape: both locations, each
   race class, known and unknown instruction ids, address 0. *)
let test_error_text () =
  let race ?(same = false) cls loc (pk, pt, pi) (ck, ct, ci) =
    Report.Race
      {
        Report.loc;
        prev_tid = pt;
        prev_kind = pk;
        prev_insn = pi;
        cur_tid = ct;
        cur_kind = ck;
        cur_insn = ci;
        same_instruction = same;
        cls;
      }
  in
  List.iter
    (fun (e, text) ->
      Alcotest.(check string) text text (Report.error_to_string e);
      Alcotest.(check string)
        ("pp_error: " ^ text) text
        (Format.asprintf "%a" Report.pp_error e))
    [
      ( race Report.Intra_warp (Gtrace.Loc.global 0x40) (Report.Write, 0, 3)
          (Report.Write, 1, 5),
        "intra-warp race on g:0x40: write by t0 (insn 3) vs write by t1 \
         (insn 5)" );
      ( race Report.Intra_block
          (Gtrace.Loc.shared ~block:1 0x8)
          (Report.Read, 32, -1) (Report.Write, 0, 7),
        "intra-block race on s1:0x8: read by t32 vs write by t0 (insn 7)" );
      ( race Report.Inter_block (Gtrace.Loc.global 0x1000)
          (Report.Atomic_rmw, 64, 2) (Report.Read, 3, -1),
        "inter-block race on g:0x1000: atomic by t64 (insn 2) vs read by t3" );
      ( race ~same:true Report.Intra_warp
          (Gtrace.Loc.shared ~block:0 0)
          (Report.Write, 2, 4) (Report.Write, 5, 4),
        "intra-warp race on s0:0: write by t2 (insn 4) vs write by t5 (insn \
         4) (same instruction)" );
      ( race Report.Inter_block (Gtrace.Loc.global 0) (Report.Read, 0, -1)
          (Report.Atomic_rmw, 127, -1),
        "inter-block race on g:0: read by t0 vs atomic by t127" );
      ( Report.Barrier_divergence { warp = 3; insn = 9 },
        "barrier divergence: warp 3 at insn 9" );
    ]

(* ---- Report order ------------------------------------------------------ *)

(* The Reference property compares race sets and the census counts
   warp formats; this pins the order and the text of every error, as
   [check] prints them.  One digest per corpus over each kernel's
   errors in detection order, uncapped, once with every access checked
   and once under the kernels' check plans. *)
let error_lines plan_of (layout, kernel, setup) =
  let m = Simt.Machine.create ~layout () in
  let args = setup m in
  let det =
    Barracuda.Detector.create
      ~config:{ Barracuda.Detector.default_config with max_reports = max_int }
      ~layout
      (plan_of (Static.Plan.of_kernel kernel))
  in
  ignore
    (Gpu_runtime.Session.run_stream
       ~sink:(Gpu_runtime.Session.serial_sink det) ~machine:m kernel args);
  List.map Report.error_to_string (Report.errors (Barracuda.Detector.report det))

let test_report_order_pinned () =
  let check label corpus (every, every_digest) (planned, planned_digest) =
    let pin what plan_of errors digest =
      let lines = List.map (error_lines plan_of) corpus in
      Alcotest.(check int)
        (Printf.sprintf "%s, %s: errors" label what)
        errors
        (List.fold_left (fun n l -> n + List.length l) 0 lines);
      Alcotest.(check string)
        (Printf.sprintf "%s, %s: error lines in order" label what)
        digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n\n" (List.map (String.concat "\n") lines))))
    in
    pin "every access" Static.Plan.empty every every_digest;
    pin "under the plans" Fun.id planned planned_digest
  in
  check "92 shipped kernels"
    (List.map (fun (_, l, k, s) -> (l, k, s)) Test_simt.shipped_kernels)
    (2290, "f9d33b65cb93a8af31efea4699cb8c4c")
    (2290, "f9d33b65cb93a8af31efea4699cb8c4c");
  let programs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 2026 |]) ~n:400
      Gen.gen_program
  in
  check "400 generated programs"
    (List.map (fun p -> (lay, Gen.kernel_of_program p, Gen.setup)) programs)
    (21614, "abd20dd81196d63b268e865ee2096291")
    (21614, "abd20dd81196d63b268e865ee2096291")

let suite =
  [
    Alcotest.test_case "wc initial state" `Quick test_wc_initial_state;
    Alcotest.test_case "wc join-fork" `Quick test_wc_join_fork_advances;
    Alcotest.test_case "wc divergence formats" `Quick test_wc_divergence_formats;
    Alcotest.test_case "wc overlays" `Quick test_wc_overlay_sparse;
    Alcotest.test_case "PTVC census pinned" `Quick test_ptvc_census_pinned;
    Alcotest.test_case "wc barrier" `Quick test_wc_barrier_block_clock;
    Alcotest.test_case "wc materialize" `Quick test_wc_materialize_roundtrip;
    Alcotest.test_case "wc release increment" `Quick
      test_wc_release_increment_breaks_uniformity;
    Alcotest.test_case "report dedup/classes" `Quick test_report_dedup_and_classes;
    Alcotest.test_case "report cap" `Quick test_report_cap;
    Alcotest.test_case "shadow pages" `Quick test_shadow_pages_on_demand;
    Alcotest.test_case "shadow summary split" `Quick test_shadow_summary_split;
    Alcotest.test_case "shadow summaries allocate nothing" `Quick
      test_shadow_summary_no_alloc;
    Alcotest.test_case "rule: write-write" `Quick test_rule_write_write;
    Alcotest.test_case "rule: same-value filter" `Quick test_rule_same_value_filter;
    Alcotest.test_case "rule: read inflation" `Quick test_rule_read_inflation;
    Alcotest.test_case "rule: atomics" `Quick test_rule_atomics_no_race;
    Alcotest.test_case "rule: barrier orders" `Quick test_rule_barrier_separates;
    Alcotest.test_case "rule: missing barrier" `Quick test_rule_no_barrier_races;
  ]
  @ List.map Gen.to_alcotest
      [ prop_detector_matches_reference; prop_detector_deterministic ]
  @ [
      Alcotest.test_case "one error text" `Quick test_error_text;
      Alcotest.test_case "report order pinned" `Quick test_report_order_pinned;
    ]
