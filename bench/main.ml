(* The full evaluation harness: regenerates every table and figure of
   the paper's evaluation (§6) plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- one section (prefix match)

   Sections:
     6.1         concurrency bug suite scores (BARRACUDA vs Racecheck)
     figure4     memory-fence litmus tests on both GPU models
     table1      the 26 workloads: static insns, threads, memory, races
     figure9     % static instructions instrumented (unopt vs opt)
     figure10    runtime overhead of the full pipeline vs native
     ptvc        ablation: PTVC format census and compression ratio
     queues      ablation: multi-queue logging throughput
     granularity ablation: byte- vs word-granular shadow memory
     pipeline    telemetry per-stage profile -> BENCH_pipeline.json
     predict     predictive analysis over traces -> BENCH_predict.json
     service     batch-daemon throughput scaling -> BENCH_service.json
     stream      streaming-session chunked ingest -> BENCH_stream.json
     static      static race analysis pruning wins -> BENCH_static.json
     repair      automated repair scoreboard + throughput -> BENCH_repair.json
     fleet       multi-tenant soak + background campaign -> BENCH_fleet.json
     bechamel    Bechamel micro-benchmarks (one per table/figure)      *)

module W = Workloads.Workload

let time_it ?(min_time = 0.05) f =
  let samples = ref [] in
  let budget = ref 0.0 in
  let reps = ref 0 in
  while !budget < min_time || !reps < 3 do
    let t0 = Telemetry.Clock.now_ns () in
    f ();
    let d = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
    samples := d :: !samples;
    budget := !budget +. d;
    incr reps
  done;
  let sorted = List.sort compare !samples in
  List.nth sorted (List.length sorted / 2)

let header title =
  Printf.printf "\n=== %s %s\n%!" title
    (String.make (max 1 (66 - String.length title)) '=')

(* Shared per-workload artifacts: the instrument pass is a pure
   function of the kernel, but a bare pipeline run re-instruments on
   every call.  Sections that run the same workload repeatedly hoist
   one result (computed with the pipeline's default prune/static
   flags) instead of paying parse+analyze per repetition. *)
let inst_cache : (string, Instrument.Pass.result) Hashtbl.t = Hashtbl.create 32

let inst_of (w : W.t) =
  (* workload names repeat across suites (Rodinia bfs vs SHOC bfs) *)
  let key = w.W.suite ^ "/" ^ w.W.name in
  match Hashtbl.find_opt inst_cache key with
  | Some r -> r
  | None ->
      let r = Instrument.Pass.instrument ~prune:true ~static:true w.W.kernel in
      Hashtbl.add inst_cache key r;
      r

(* Time [f] while keeping its last result: sections that need both a
   timing and the run's counters must not pay (or re-randomize) an
   extra untimed run. *)
let time_keeping f =
  let last = ref None in
  let t = time_it (fun () -> last := Some (f ())) in
  (t, Option.get !last)

(* The ablations read the detector's counters, so they hand
   [run_stream] a serial sink over a detector they own. *)
let detector_stats ?config ~machine kernel args =
  let det =
    Barracuda.Detector.create ?config ~layout:(Simt.Machine.layout machine)
      kernel
  in
  ignore
    (Gpu_runtime.Session.run_stream
       ~sink:(Gpu_runtime.Session.serial_sink det)
       ~machine kernel args);
  Barracuda.Detector.stats det

let workload_stats ?config (w : W.t) =
  let m = W.machine w in
  let args = w.W.setup m in
  detector_stats ?config ~machine:m w.W.kernel args

(* ------------------------------------------------------------------ *)
(* Section 6.1: concurrency bug suite                                  *)

let section_61 () =
  header "Section 6.1: concurrency bug suite (66 programs)";
  let cases = Bugsuite.Cases.all in
  let b = Bugsuite.Harness.run_barracuda cases in
  let r = Bugsuite.Harness.run_racecheck cases in
  Printf.printf "  tool            correct   paper\n";
  Printf.printf "  BARRACUDA        %2d/66    66/66\n" b.Bugsuite.Harness.correct;
  Printf.printf "  CUDA-Racecheck   %2d/66    19/66\n" r.Bugsuite.Harness.correct;
  let hangs =
    List.length
      (List.filter
         (fun (c : Bugsuite.Case.t) ->
           Barracuda.Racecheck.would_hang c.Bugsuite.Case.kernel)
         cases)
  in
  Printf.printf
    "  (racecheck model: misses global memory, blind to fences/atomics,\n\
    \   false-positives on warp lockstep, hangs on %d spinlock tests)\n"
    hangs

(* ------------------------------------------------------------------ *)
(* Figure 4: memory fence litmus tests                                 *)

let section_figure4 () =
  header "Figure 4: memory-fence litmus tests (message passing)";
  let runs = 200_000 in
  Printf.printf "  %-11s %-11s %10s %14s   (paper: 7253 / 0 per 1M, cta/cta)\n"
    "fence1" "fence2" "K520" "GTX Titan X";
  List.iter
    (fun (r : Memmodel.Litmus.figure4_row) ->
      let scope s = Format.asprintf "membar.%a" Ptx.Ast.pp_fence_scope s in
      Printf.printf "  %-11s %-11s %10d %14d   per %d runs\n"
        (scope r.Memmodel.Litmus.fence1)
        (scope r.Memmodel.Litmus.fence2)
        r.Memmodel.Litmus.k520_observations r.Memmodel.Litmus.titan_observations
        r.Memmodel.Litmus.runs)
    (Memmodel.Litmus.figure4 ~runs ())

(* ------------------------------------------------------------------ *)
(* Table 1: the 26 workloads                                           *)

let section_table1 () =
  header "Table 1: benchmarks (scaled grids; paper values in parens)";
  Printf.printf "  %-18s %-9s %7s %9s %11s  %s\n" "benchmark" "suite" "insns"
    "threads" "global KiB" "races found";
  List.iter
    (fun (w : W.t) ->
      let report = (W.run w).Gpu_runtime.Session.sr_report in
      let shared, global = W.racy_word_counts report in
      let races =
        match (shared, global) with
        | 0, 0 -> "-"
        | s, 0 -> Printf.sprintf "%d shared" s
        | 0, g -> Printf.sprintf "%d global" g
        | s, g -> Printf.sprintf "%d shared, %d global" s g
      in
      let m = W.machine w in
      let _ = w.W.setup m in
      let footprint = Simt.Memory.footprint (Simt.Machine.global_memory m) in
      Printf.printf "  %-18s %-9s %7d %9d %11d  %-18s (paper: %s)\n" w.W.name
        w.W.suite
        (Array.length w.W.kernel.Ptx.Ast.body)
        (W.total_threads w)
        (max 1 (footprint / 1024))
        races
        (if w.W.paper.W.p_races = "" then "-" else w.W.paper.W.p_races))
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Figure 9: instrumented static instructions                          *)

let section_figure9 () =
  header "Figure 9: % of static PTX instructions instrumented";
  Printf.printf "  %-18s %-9s %12s %12s %10s %11s\n" "benchmark" "suite"
    "unoptimized" "optimized" "pruned-blk" "pruned-stat";
  List.iter
    (fun (w : W.t) ->
      let unopt =
        Instrument.Pass.instrument ~prune:false ~static:false w.W.kernel
      in
      let opt = Instrument.Pass.instrument w.W.kernel in
      Printf.printf "  %-18s %-9s %11.1f%% %11.1f%% %10d %11d\n" w.W.name
        w.W.suite
        (100.0 *. Instrument.Stats.fraction unopt.Instrument.Pass.stats)
        (100.0 *. Instrument.Stats.fraction opt.Instrument.Pass.stats)
        opt.Instrument.Pass.stats.Instrument.Stats.pruned_block
        opt.Instrument.Pass.stats.Instrument.Stats.pruned_static)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Figure 10: runtime overhead vs native                               *)

let section_figure10 () =
  header "Figure 10: BARRACUDA runtime overhead (normalized to native)";
  Printf.printf "  %-18s %-9s %11s %11s %9s %11s\n" "benchmark" "suite"
    "native(ms)" "brrcda(ms)" "overhead" "insn ratio";
  List.iter
    (fun (w : W.t) ->
      let native, nr = time_keeping (fun () -> W.run_native w) in
      let native_insns = nr.Simt.Machine.dyn_instructions in
      let inst = inst_of w in
      let piped, pr = time_keeping (fun () -> W.run ~inst w) in
      let piped_insns =
        pr.Gpu_runtime.Session.sr_machine_result.Simt.Machine.dyn_instructions
      in
      Printf.printf "  %-18s %-9s %11.2f %11.2f %8.1fx %10.1fx\n" w.W.name
        w.W.suite (1000.0 *. native) (1000.0 *. piped) (piped /. native)
        (float_of_int piped_insns /. float_of_int (max 1 native_insns)))
    Workloads.Registry.all;
  Printf.printf
    "  (overheads compress vs the paper's 10-3700x because the native\n\
    \   baseline here is itself a simulator; the per-benchmark ordering\n\
    \   and the insn-ratio shape are the comparable signals)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: PTVC compression                                          *)

let section_ptvc () =
  header "Ablation: per-thread VC compression (paper 4.3.1)";
  Printf.printf "  %-18s %10s %9s %8s %9s %12s %14s\n" "benchmark" "converged"
    "diverged" "nested" "sparse" "ptvc bytes" "full-vc bytes";
  let tc = ref 0 and td = ref 0 and tn = ref 0 and ts = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let s = workload_stats w in
      tc := !tc + s.Barracuda.Detector.ptvc_converged;
      td := !td + s.Barracuda.Detector.ptvc_diverged;
      tn := !tn + s.Barracuda.Detector.ptvc_nested;
      ts := !ts + s.Barracuda.Detector.ptvc_sparse;
      Printf.printf "  %-18s %10d %9d %8d %9d %12d %14d\n" w.W.name
        s.Barracuda.Detector.ptvc_converged s.Barracuda.Detector.ptvc_diverged
        s.Barracuda.Detector.ptvc_nested s.Barracuda.Detector.ptvc_sparse
        s.Barracuda.Detector.ptvc_bytes s.Barracuda.Detector.full_vc_bytes)
    Workloads.Registry.all;
  let total = !tc + !td + !tn + !ts in
  if total > 0 then
    Printf.printf
      "  format census across all records: %.1f%% converged, %.1f%% diverged,\n\
      \  %.1f%% nested, %.1f%% sparse (paper: ~90%% warp-uniform)\n"
      (100.0 *. float_of_int !tc /. float_of_int total)
      (100.0 *. float_of_int !td /. float_of_int total)
      (100.0 *. float_of_int !tn /. float_of_int total)
      (100.0 *. float_of_int !ts /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Ablation: queue count throughput                                    *)

let section_queues () =
  header "Ablation: GPU->host queue throughput vs queue count (paper 4.2)";
  (* The paper found ~1.1-1.5 queues per SM optimal because parallel
     producers contend on a single queue's indices.  This host exposes a
     single core, so we measure the single-threaded sharding cost: the
     producer round-robins blocks across [nq] queues and the consumer
     drains them all, which is exactly the pipeline's structure. *)
  let total = 200_000 in
  let fill buf off =
    Bytes.fill buf off Barracuda.Wire.size 'x'
  in
  Printf.printf "  %7s %12s %14s %16s\n" "queues" "records/s" "records"
    "high watermark";
  List.iter
    (fun nq ->
      let queues =
        Array.init nq (fun _ -> Gpu_runtime.Queue.create ~capacity:1024)
      in
      let t0 = Telemetry.Clock.now_ns () in
      let consumed = ref 0 in
      for i = 0 to total - 1 do
        let q = queues.(i mod nq) in
        while not (Gpu_runtime.Queue.push_into q fill) do
          (* backpressure: drain the full queue *)
          if Gpu_runtime.Queue.peek q >= 0 then begin
            Gpu_runtime.Queue.release q;
            incr consumed
          end
        done
      done;
      Array.iter
        (fun q ->
          let rec drain () =
            if Gpu_runtime.Queue.peek q >= 0 then begin
              Gpu_runtime.Queue.release q;
              incr consumed;
              drain ()
            end
          in
          drain ())
        queues;
      let dt = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
      let high =
        Array.fold_left
          (fun acc q -> max acc (Gpu_runtime.Queue.high_watermark q))
          0 queues
      in
      assert (!consumed = total);
      Printf.printf "  %7d %12.0f %14d %16d\n" nq
        (float_of_int total /. dt)
        total high)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Ablation: shadow granularity                                        *)

let section_granularity () =
  header "Ablation: shadow-memory granularity (byte vs word, paper 4.3.3)";
  Printf.printf "  %-18s %12s %12s %10s %10s\n" "benchmark" "byte cells"
    "word cells" "byte(ms)" "word(ms)";
  let subset = [ "backprop"; "dxtc"; "block_reduce"; "needle" ] in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let run g () =
        workload_stats
          ~config:
            { Barracuda.Detector.default_config with shadow_granularity = g }
          w
      in
      let t1, s1 = time_keeping (run 1) in
      let t4, s4 = time_keeping (run 4) in
      Printf.printf "  %-18s %12d %12d %10.2f %10.2f\n" name
        s1.Barracuda.Detector.shadow_cells s4.Barracuda.Detector.shadow_cells
        (1000.0 *. t1) (1000.0 *. t4))
    subset

(* ------------------------------------------------------------------ *)
(* Scaling: PTVC compression and detection cost vs grid size           *)

let section_scaling () =
  header "Scaling: detection cost and PTVC compression vs thread count";
  (* a representative kernel: tiled stencil with a barrier and a
     divergent fixup, scaled by block count *)
  let build_kernel () =
    let b =
      Ptx.Builder.create ~params:[ "t_in"; "t_out" ]
        ~shared:[ ("tile", 128 * 4) ]
        "scaling_stencil"
    in
    let open Ptx.Builder in
    let tid = Ptx.Ast.Sreg Ptx.Ast.Tid in
    let g = global_tid b in
    let v = Workloads.Common.load_global b ~base:"t_in" (reg g) in
    let sa = Workloads.Common.shared_addr b ~base:"tile" tid in
    st ~space:Ptx.Ast.Shared b (reg sa) (reg v);
    bar b;
    let acc = fresh_reg b in
    mov b acc (reg v);
    if_ b Ptx.Ast.C_gt tid (imm 0) (fun b ->
        let la = fresh_reg ~cls:"rd" b in
        mad b la tid (imm 4) (sym "tile");
        binop b Ptx.Ast.B_sub la (reg la) (imm 4);
        let l = fresh_reg b in
        ld ~space:Ptx.Ast.Shared b l (reg la);
        binop b Ptx.Ast.B_add acc (reg acc) (reg l));
    Workloads.Common.store_global_result b ~base:"t_out" ~index:(reg g)
      (reg acc);
    finish b
  in
  let kernel = build_kernel () in
  Printf.printf "  %8s %10s %12s %12s %16s %9s\n" "threads" "time(ms)"
    "records" "ptvc bytes" "full-vc bytes" "ratio";
  List.iter
    (fun blocks ->
      let layout =
        Vclock.Layout.make ~warp_size:32 ~threads_per_block:128 ~blocks
      in
      let n = Vclock.Layout.total_threads layout in
      let run () =
        let m = Simt.Machine.create ~layout () in
        let t_in = Simt.Machine.alloc_global m (4 * n) in
        let t_out = Simt.Machine.alloc_global m (4 * n) in
        detector_stats ~machine:m kernel
          [| Int64.of_int t_in; Int64.of_int t_out |]
      in
      let dt, s = time_keeping run in
      Printf.printf "  %8d %10.1f %12d %12d %16d %8.0fx\n" n (1000.0 *. dt)
        s.Barracuda.Detector.records_processed s.Barracuda.Detector.ptvc_bytes
        s.Barracuda.Detector.full_vc_bytes
        (float_of_int s.Barracuda.Detector.full_vc_bytes
        /. float_of_int (max 1 s.Barracuda.Detector.ptvc_bytes)))
    [ 2; 8; 32; 128 ];
  Printf.printf
    "  (full per-thread VCs grow as threads^2; the compressed PTVCs grow\n\
    \   linearly in warps — the gap is what makes million-thread grids\n\
    \   tractable, 4 MB vs 4 TB at 10^6 threads)\n"

(* ------------------------------------------------------------------ *)
(* Telemetry: per-stage pipeline profile -> BENCH_pipeline.json        *)

(* Scan a previously checked-in BENCH json for a gauge value without a
   parser: find the metric name, then the "value": field after it.
   Returns [None] when the file or key is absent (first run). *)
let scan_baseline path key =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let needle = "\"" ^ key ^ "\"" in
    let rec find_sub from pat =
      if from + String.length pat > String.length s then None
      else if String.sub s from (String.length pat) = pat then Some from
      else find_sub (from + 1) pat
    in
    match find_sub 0 needle with
    | None -> None
    | Some at -> (
        match find_sub at "\"value\":" with
        | None -> None
        | Some v ->
            let i = ref (v + 8) in
            while !i < String.length s && s.[!i] = ' ' do incr i done;
            let start = !i in
            while
              !i < String.length s
              && (match s.[!i] with '0' .. '9' | '-' -> true | _ -> false)
            do
              incr i
            done;
            int_of_string_opt (String.sub s start (!i - start)))

(* The transport hot path in isolation: serialize records straight into
   ring slots and consume them in place with [feed_record], telemetry
   off.  End-to-end pipeline throughput is execute-dominated, so this is
   the number the in-place refactor is accountable for. *)
let hot_pump_records_per_sec () =
  let layout =
    Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2
  in
  let b = Ptx.Builder.create ~params:[ "g" ] "bench_hot" in
  Ptx.Builder.st b (Ptx.Builder.sym "g") (Ptx.Builder.imm 1);
  let k = Ptx.Builder.finish b in
  let det = Barracuda.Detector.create ~layout k in
  let q = Gpu_runtime.Queue.create ~capacity:1024 in
  let buf = Gpu_runtime.Queue.buffer q in
  let ws = layout.Vclock.Layout.warp_size in
  let addrs = Array.init ws (fun i -> 4 * i) in
  let values = Array.make ws 1L in
  let mask = (1 lsl ws) - 1 in
  let pump n =
    for _ = 1 to n do
      let w = Gpu_runtime.Queue.try_reserve q in
      let pos = Gpu_runtime.Queue.offset_of q w in
      Barracuda.Wire.write_access buf ~pos ~kind:Simt.Event.Store
        ~space:Ptx.Ast.Global ~width:4 ~mask ~warp:0 ~insn:0 ~addrs;
      Barracuda.Wire.seal buf ~pos ~seq:w;
      Gpu_runtime.Queue.commit q w;
      let off = Gpu_runtime.Queue.peek q in
      Barracuda.Detector.feed_record det ~values buf ~pos:off;
      Gpu_runtime.Queue.release q
    done
  in
  pump 2_000 (* warm up shadow pages *);
  let n = 200_000 in
  let minor0 = Gc.minor_words () in
  let t0 = Telemetry.Clock.now_ns () in
  pump n;
  let dt = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
  let per_record = (Gc.minor_words () -. minor0) /. float_of_int n in
  Printf.printf "  hot path allocates %.2f minor words/record\n" per_record;
  float_of_int n /. dt

let bench_json = "BENCH_pipeline.json"

(* BENCH_*.json outputs are gitignored artifacts; the committed
   reference CI compares against lives beside the bench source. *)
let baseline_json = "bench/baseline_pipeline.json"
let key_hot = "barracuda_bench_hot_records_per_sec"
let key_e2e = "barracuda_bench_records_per_sec"

let warn_on_regression ?(baseline = baseline_json) ~key ~label ~fresh () =
  match scan_baseline baseline key with
  | Some old when old > 0 && fresh < 0.75 *. float_of_int old ->
      (* non-fatal: CI surfaces this as a warning annotation, the build
         stays green (shared runners are noisy) *)
      Printf.printf
        "::warning::%s regressed >25%% vs checked-in baseline (%d -> %.0f \
         records/s)\n"
        label old fresh
  | _ -> ()

let section_pipeline () =
  header "Telemetry: per-stage pipeline profile (BENCH_pipeline.json)";
  let subset = [ "backprop"; "pathfinder"; "dxtc"; "d_scan"; "hashtable" ] in
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset registry;
  let t0 = Telemetry.Clock.now_ns () in
  let records =
    List.fold_left
      (fun acc name ->
        let w = Workloads.Registry.find name in
        let r = W.run ~inst:(Instrument.Pass.instrument w.W.kernel) w in
        acc + r.Gpu_runtime.Session.sr_records)
      0 subset
  in
  let wall_ns = Telemetry.Clock.elapsed_ns ~since:t0 in
  Telemetry.Registry.set_enabled false;
  Printf.printf "  %-12s %8s %12s %8s\n" "stage" "calls" "total ms" "share";
  List.iter
    (fun (stage, (calls, ns)) ->
      if calls > 0 then
        Printf.printf "  %-12s %8d %12.2f %7.1f%%\n" stage calls
          (Telemetry.Clock.ns_to_ms ns)
          (100.0 *. Int64.to_float ns /. Int64.to_float (max 1L wall_ns)))
    (Telemetry.Span.totals ~registry ());
  Printf.printf "  records shipped %d, detector checks %d\n" records
    (Telemetry.Registry.find_counter registry "barracuda_detector_checks_total");
  let e2e =
    float_of_int records /. Telemetry.Clock.ns_to_s wall_ns
  in
  let hot = hot_pump_records_per_sec () in
  Printf.printf "  end-to-end  %12.0f records/s (execute-dominated)\n" e2e;
  Printf.printf "  hot path    %12.0f records/s (queue + in-place detect)\n"
    hot;
  warn_on_regression ~key:key_e2e ~label:"pipeline end-to-end throughput"
    ~fresh:e2e ();
  warn_on_regression ~key:key_hot ~label:"pipeline hot-path throughput"
    ~fresh:hot ();
  Telemetry.Registry.set_enabled true;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"End-to-end pipeline throughput over the bench subset"
       registry key_e2e)
    (int_of_float e2e);
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:
         "Steady-state transport throughput: records serialized into ring \
          slots and consumed in place"
       registry key_hot)
    (int_of_float hot);
  Telemetry.Registry.set_enabled false;
  Telemetry.Export.write_json ~path:bench_json registry;
  Printf.printf "  wrote %s (%d workloads)\n" bench_json (List.length subset)

(* ------------------------------------------------------------------ *)
(* Predictive analysis over recorded traces -> BENCH_predict.json      *)

let section_predict () =
  header "Predictive race analysis (BENCH_predict.json)";
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset registry;
  Printf.printf "  %-28s %6s %6s %6s %5s %5s %5s %8s\n" "case" "ops" "accs"
    "pairs" "obs" "pred" "conf" "ms";
  let cases =
    Bugsuite.Cases.predictive
    @ List.filter
        (fun (c : Bugsuite.Case.t) ->
          List.mem c.Bugsuite.Case.name
            [ "ww_global_inter_block"; "flag_handoff_gl_gl"; "ww_global_disjoint" ])
        Bugsuite.Cases.all
  in
  List.iter
    (fun (case : Bugsuite.Case.t) ->
      let m = Simt.Machine.create ~layout:case.Bugsuite.Case.layout () in
      let args = case.Bugsuite.Case.setup m in
      let ops, _ =
        Gtrace.Infer.run ~layout:case.Bugsuite.Case.layout m
          case.Bugsuite.Case.kernel args
      in
      let t0 = Telemetry.Clock.now_ns () in
      let a = Predict.Analysis.run ~layout:case.Bugsuite.Case.layout ops in
      let ms = Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0) in
      Printf.printf "  %-28s %6d %6d %6d %5d %5d %5d %8.2f\n"
        case.Bugsuite.Case.name a.Predict.Analysis.op_count
        a.Predict.Analysis.access_count a.Predict.Analysis.pairs_examined
        a.Predict.Analysis.observed_race_count
        (Predict.Analysis.predicted_count a)
        (Predict.Analysis.confirmed_count a)
        ms)
    cases;
  Telemetry.Registry.set_enabled false;
  List.iter
    (fun (stage, (calls, ns)) ->
      if String.length stage >= 8 && String.sub stage 0 8 = "predict." then
        Printf.printf "  span %-20s %6d calls %10.2f ms\n" stage calls
          (Telemetry.Clock.ns_to_ms ns))
    (Telemetry.Span.totals ~registry ());
  Telemetry.Export.write_json ~path:"BENCH_predict.json" registry;
  Printf.printf "  wrote BENCH_predict.json (%d cases)\n" (List.length cases)

(* ------------------------------------------------------------------ *)
(* Race-checking service throughput -> BENCH_service.json              *)

(* A small kernel mix (4 distinct sources) submitted repeatedly, so
   the artifact cache sees both cold misses and a hot steady state. *)
let kernel_mix () =
  List.filteri (fun i _ -> i < 4) Bugsuite.Cases.all
  |> List.map (fun (c : Bugsuite.Case.t) ->
         let layout = c.Bugsuite.Case.layout in
         {
           (Service.Protocol.submit_defaults ~kind:Service.Protocol.Check
              (Format.asprintf "%a" Ptx.Printer.pp_kernel
                 c.Bugsuite.Case.kernel))
           with
           Service.Protocol.layout =
             Some
               ( layout.Vclock.Layout.blocks,
                 layout.Vclock.Layout.threads_per_block,
                 layout.Vclock.Layout.warp_size );
           args =
             List.map
               (fun _ -> "alloc:256")
               c.Bugsuite.Case.kernel.Ptx.Ast.params;
         })
  |> Array.of_list

let section_service () =
  header "Race-checking service: batch throughput (BENCH_service.json)";
  let clients = 8 and jobs_per_client = 12 in
  let mix = kernel_mix () in
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let run_at workers =
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "barracuda-bench-%d-%d.sock" (Unix.getpid ()) workers)
    in
    (try Unix.unlink socket with Unix.Unix_error _ -> ());
    let server =
      Service.Server.start
        ~config:
          {
            Service.Server.default_config with
            Service.Server.socket_path = socket;
            workers;
            queue_capacity = 128;
          }
        ()
    in
    if not (Service.Client.wait_ready ~socket ()) then
      failwith "service did not come up";
    let t0 = Telemetry.Clock.now_ns () in
    let client c =
      Array.init jobs_per_client (fun j ->
          let sub = mix.((c + (j * clients)) mod Array.length mix) in
          let s0 = Telemetry.Clock.now_ns () in
          let detect_ms =
            match Service.Client.submit ~retries:50 ~socket sub with
            | Ok (Service.Protocol.Result { outcome; _ }) ->
                outcome.Service.Protocol.detect_ms
            | Ok r ->
                Printf.ksprintf failwith "bench job got %s"
                  (Service.Protocol.encode_response r)
            | Error e -> Printf.ksprintf failwith "bench job: %s" e
          in
          ( Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:s0),
            detect_ms ))
    in
    let domains =
      List.init clients (fun c -> Domain.spawn (fun () -> client c))
    in
    let samples =
      List.concat_map (fun d -> Array.to_list (Domain.join d)) domains
    in
    let latencies = List.map fst samples in
    (* per-job time inside the detector, as reported by the worker —
       distinguishes detection cost from queueing/parse/cache effects
       in the end-to-end latency (cache hits report 0) *)
    let detects = List.map snd samples in
    let wall_s = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
    let st =
      match Service.Client.status ~socket with
      | Ok s -> s
      | Error e -> Printf.ksprintf failwith "status: %s" e
    in
    Service.Server.stop server;
    let jobs = clients * jobs_per_client in
    let sorted = Array.of_list (List.sort compare latencies) in
    let dsorted = Array.of_list (List.sort compare detects) in
    let lookups = st.Service.Protocol.cache_hits + st.Service.Protocol.cache_misses in
    ( workers,
      jobs,
      float_of_int jobs /. wall_s,
      percentile sorted 0.5,
      percentile sorted 0.99,
      percentile dsorted 0.5,
      percentile dsorted 0.99,
      float_of_int st.Service.Protocol.cache_hits /. float_of_int (max 1 lookups)
    )
  in
  Printf.printf "  %7s %6s %14s %9s %9s %10s %10s %10s\n" "workers" "jobs"
    "jobs/s" "p50 ms" "p99 ms" "det p50" "det p99" "cache hit";
  let rows = List.map run_at [ 1; 2; 4; 8 ] in
  List.iter
    (fun (workers, jobs, thr, p50, p99, d50, d99, hit) ->
      Printf.printf "  %7d %6d %14.1f %9.2f %9.2f %10.2f %10.2f %9.1f%%\n"
        workers jobs thr p50 p99 d50 d99 (100.0 *. hit))
    rows;
  let json =
    Telemetry.Json.Obj
      [
        ("version", Telemetry.Json.Int 1);
        ("clients", Telemetry.Json.Int clients);
        ("jobs_per_client", Telemetry.Json.Int jobs_per_client);
        ("kernel_mix", Telemetry.Json.Int (Array.length mix));
        ( "scaling",
          Telemetry.Json.List
            (List.map
               (fun (workers, jobs, thr, p50, p99, d50, d99, hit) ->
                 Telemetry.Json.Obj
                   [
                     ("workers", Telemetry.Json.Int workers);
                     ("jobs", Telemetry.Json.Int jobs);
                     ("throughput_jobs_per_s", Telemetry.Json.Float thr);
                     ("p50_ms", Telemetry.Json.Float p50);
                     ("p99_ms", Telemetry.Json.Float p99);
                     ("detect_p50_ms", Telemetry.Json.Float d50);
                     ("detect_p99_ms", Telemetry.Json.Float d99);
                     ("cache_hit_rate", Telemetry.Json.Float hit);
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_service.json (%d worker counts)\n"
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* Sharded detection engine -> BENCH_shard.json                        *)

let shard_baseline_json = "bench/baseline_shard.json"
let key_shard_serial = "barracuda_bench_shard_serial_records_per_sec"
let key_shard8_detect = "barracuda_bench_shard8_detect_records_per_sec"

let section_shard () =
  header "Sharded detection engine: broadcast transport (BENCH_shard.json)";
  let w = Workloads.Registry.find "dxtc" in
  (* both backends run the deployed instrumentation through the
     session core; only the sink differs *)
  let run ?sink () =
    let m = W.machine w in
    let args = w.W.setup m in
    let r =
      Gpu_runtime.Session.run_stream ?sink ~inst:(inst_of w) ~machine:m
        w.W.kernel args
    in
    ( r.Gpu_runtime.Session.sr_records,
      r.Gpu_runtime.Session.sr_detect_ns,
      Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report )
  in
  let run_serial () = run () in
  let run_shards shards () =
    run ~sink:(Shard.Stream.sink ~layout:w.W.layout ~shards w.W.kernel) ()
  in
  (* e2e throughput counts the whole job (simulation included);
     detect throughput counts only the busiest shard's time inside the
     detector — the number the partitioned checks are accountable for,
     and the one comparable to the isolated transport pump *)
  let measure run =
    ignore (run ()) (* warm shadow pages / code paths *);
    let t0 = Telemetry.Clock.now_ns () in
    let records, detect_ns, racy = run () in
    let wall = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
    let detect_s = Int64.to_float detect_ns /. 1e9 in
    ( float_of_int records /. wall,
      float_of_int records /. Float.max 1e-9 detect_s,
      Telemetry.Clock.ns_to_ms detect_ns,
      racy )
  in
  Printf.printf "  %-8s %15s %17s %11s %8s\n" "config" "e2e rec/s"
    "detect rec/s" "detect ms" "races";
  let _, _, _, serial_racy = measure run_serial in
  let serial_e2e, serial_det, serial_ms, _ = measure run_serial in
  Printf.printf "  %-8s %15.0f %17.0f %11.2f %8b\n" "serial" serial_e2e
    serial_det serial_ms serial_racy;
  let rows =
    List.map
      (fun shards ->
        let e2e, det, ms, racy = measure (run_shards shards) in
        Printf.printf "  %-8s %15.0f %17.0f %11.2f %8b\n"
          (Printf.sprintf "%d-shard" shards)
          e2e det ms (racy = serial_racy);
        (shards, e2e, det, ms))
      [ 1; 2; 4; 8 ]
  in
  let hot = hot_pump_records_per_sec () in
  let _, _, shard8_det, _ = List.find (fun (s, _, _, _) -> s = 8) rows in
  Printf.printf "  transport pump %12.0f records/s (isolated, serial)\n" hot;
  Printf.printf
    "  8-shard detect throughput is %.2fx the isolated transport pump\n"
    (shard8_det /. hot);
  Printf.printf
    "  (single-core host: the broadcast engine pays one 280-byte blit per\n\
    \   shard per record without gaining parallel speedup; the partitioned\n\
    \   checks are what shrink per-shard detect time — see EXPERIMENTS.md)\n";
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.reset registry;
  Telemetry.Registry.set_enabled true;
  (* one instrumented 8-shard run so the engine's own telemetry —
     per-shard record counters, broadcast-epoch histogram, imbalance
     gauge — lands in the exported artifact *)
  ignore (run_shards 8 ());
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Serial sink end-to-end throughput on the shard bench workload"
       registry key_shard_serial)
    (int_of_float serial_e2e);
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"8-shard detection throughput (records over busiest shard time)"
       registry key_shard8_detect)
    (int_of_float shard8_det);
  List.iter
    (fun (shards, e2e, _, _) ->
      Telemetry.Metric.gauge_set
        (Telemetry.Registry.gauge
           ~help:"Sharded sink end-to-end throughput" registry
           (Printf.sprintf "barracuda_bench_shard%d_records_per_sec" shards))
        (int_of_float e2e))
    rows;
  Telemetry.Registry.set_enabled false;
  warn_on_regression ~baseline:shard_baseline_json ~key:key_shard_serial
    ~label:"shard bench serial throughput" ~fresh:serial_e2e ();
  warn_on_regression ~baseline:shard_baseline_json ~key:key_shard8_detect
    ~label:"8-shard detection throughput" ~fresh:shard8_det ();
  Telemetry.Export.write_json ~path:"BENCH_shard.json" registry;
  Printf.printf "  wrote BENCH_shard.json\n"

(* ------------------------------------------------------------------ *)
(* Streaming sessions -> BENCH_stream.json                             *)

let stream_baseline_json = "bench/baseline_stream.json"
let key_stream1 = "barracuda_bench_stream1_records_per_sec"

let percentile p samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      a.(min (Array.length a - 1)
           (int_of_float (p *. float_of_int (Array.length a - 1))))

let section_stream () =
  header "Streaming sessions: chunked ingest (BENCH_stream.json)";
  let w = Workloads.Registry.find "needle" in
  (* record the wire stream once; every session replays the same bytes,
     so the measurement is pure ingest + detect, no simulation *)
  let m = W.machine w in
  let args = w.W.setup m in
  let buf = Buffer.create 65536 in
  let r =
    Gpu_runtime.Session.run_stream ~inst:(inst_of w) ~capture:buf ~machine:m
      w.W.kernel args
  in
  let bytes = Buffer.contents buf in
  let records = r.Gpu_runtime.Session.sr_records in
  let chunk = 8192 in
  (* one full session: feed in chunks, checkpoint every 4 chunks,
     returning per-checkpoint latencies (close included: it is the
     final checkpoint) *)
  let run_session () =
    let st =
      Gpu_runtime.Session.open_stream ~layout:w.W.layout w.W.kernel
    in
    let total = String.length bytes in
    let pos = ref 0 and i = ref 0 in
    let lat = ref [] in
    let checkpointed f =
      let t0 = Telemetry.Clock.now_ns () in
      let v = f () in
      lat :=
        Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0)
        :: !lat;
      v
    in
    while !pos < total do
      let len = min chunk (total - !pos) in
      Gpu_runtime.Session.feed_chunk st ~pos:!pos ~len bytes;
      pos := !pos + len;
      incr i;
      if !i mod 4 = 0 then
        ignore (checkpointed (fun () -> Gpu_runtime.Session.checkpoint st))
    done;
    ignore (checkpointed (fun () -> Gpu_runtime.Session.close_stream st));
    !lat
  in
  ignore (run_session ()) (* warm shadow pages / lazy telemetry *);
  Printf.printf "  %9s %13s %15s %15s\n" "sessions" "records/s"
    "checkpoint p50" "checkpoint p99";
  let rows =
    List.map
      (fun sessions ->
        let t0 = Telemetry.Clock.now_ns () in
        let doms =
          Array.init sessions (fun _ -> Domain.spawn run_session)
        in
        let lats = Array.to_list doms |> List.concat_map Domain.join in
        let wall =
          Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0)
        in
        let rps = float_of_int (sessions * records) /. wall in
        let p50 = percentile 0.50 lats and p99 = percentile 0.99 lats in
        Printf.printf "  %9d %13.0f %13.2fms %13.2fms\n" sessions rps
          (1000.0 *. p50) (1000.0 *. p99);
        (sessions, rps, p50, p99))
      [ 1; 2; 4 ]
  in
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.reset registry;
  Telemetry.Registry.set_enabled true;
  List.iter
    (fun (sessions, rps, p50, p99) ->
      let set name help v =
        Telemetry.Metric.gauge_set
          (Telemetry.Registry.gauge ~help registry
             (Printf.sprintf "barracuda_bench_stream%d_%s" sessions name))
          v
      in
      set "records_per_sec"
        "Aggregate streaming-session ingest throughput" (int_of_float rps);
      set "checkpoint_p50_us" "Median checkpoint latency"
        (int_of_float (1e6 *. p50));
      set "checkpoint_p99_us" "p99 checkpoint latency"
        (int_of_float (1e6 *. p99)))
    rows;
  Telemetry.Registry.set_enabled false;
  let _, rps1, _, _ = List.find (fun (s, _, _, _) -> s = 1) rows in
  warn_on_regression ~baseline:stream_baseline_json ~key:key_stream1
    ~label:"streaming-session ingest throughput" ~fresh:rps1 ();
  Telemetry.Export.write_json ~path:"BENCH_stream.json" registry;
  Printf.printf "  wrote BENCH_stream.json (%d records/session)\n" records

(* ------------------------------------------------------------------ *)
(* Static race analysis -> BENCH_static.json                           *)

let static_baseline_json = "bench/baseline_static.json"
let key_static_on = "barracuda_bench_static_on_accesses_per_sec"
let key_static_pruned = "barracuda_bench_static_pruned_insns"

let section_static () =
  header "Static race analysis: pruning and throughput (BENCH_static.json)";
  (* Per-tier pruning census over a subset with real static wins
     (lavamd drops from 20.7% to 1.7% instrumented). *)
  let subset = [ "lavamd"; "nn"; "hotspot"; "backprop"; "d_scan"; "dxtc" ] in
  Printf.printf "  %-12s %8s %10s %11s %11s %9s\n" "benchmark" "insns"
    "accesses" "pruned-stat" "pruned-blk" "analyze";
  let tot_insns = ref 0 and tot_static = ref 0 and tot_block = ref 0 in
  let tot_analyze_ms = ref 0.0 in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let analyze_s = time_it (fun () -> ignore (Static.Analysis.analyze w.W.kernel)) in
      let a = Static.Analysis.analyze w.W.kernel in
      let safe, racy, unknown = Static.Analysis.counts a in
      let opt = Instrument.Pass.instrument w.W.kernel in
      let st = opt.Instrument.Pass.stats in
      tot_insns := !tot_insns + st.Instrument.Stats.total_static;
      tot_static := !tot_static + st.Instrument.Stats.pruned_static;
      tot_block := !tot_block + st.Instrument.Stats.pruned_block;
      tot_analyze_ms := !tot_analyze_ms +. (analyze_s *. 1e3);
      Printf.printf "  %-12s %8d %10d %11d %11d %7.2fms\n" w.W.name
        st.Instrument.Stats.total_static
        (safe + racy + unknown)
        st.Instrument.Stats.pruned_static st.Instrument.Stats.pruned_block
        (analyze_s *. 1e3))
    subset;
  Printf.printf "  %-12s %8d %10s %11d %11d %7.2fms\n" "total" !tot_insns ""
    !tot_static !tot_block !tot_analyze_ms;
  Printf.printf "  static tier prunes %d of %d static instructions (%.1f%%)\n"
    !tot_static !tot_insns
    (100.0 *. float_of_int !tot_static /. float_of_int (max 1 !tot_insns));
  (* End-to-end effect: the same workload through the full pipeline
     with the static tier off vs on.  The numerator is the unpruned
     record count both ways — the logical work checked — so the two
     throughput numbers are comparable. *)
  let e2e name =
    let w = Workloads.Registry.find name in
    let run static =
      let m = W.machine w in
      let args = w.W.setup m in
      let inst = Instrument.Pass.instrument ~static w.W.kernel in
      let r = Gpu_runtime.Session.run_stream ~inst ~machine:m w.W.kernel args in
      r.Gpu_runtime.Session.sr_records
    in
    let records_off = run false in
    let records_on = run true in
    let t_off = time_it (fun () -> ignore (run false)) in
    let t_on = time_it (fun () -> ignore (run true)) in
    let off_tp = float_of_int records_off /. t_off in
    let on_tp = float_of_int records_off /. t_on in
    Printf.printf
      "  %-12s %7d -> %5d records  %9.0f -> %9.0f accesses/s  (%.2fx)\n"
      w.W.name records_off records_on off_tp on_tp (t_off /. t_on);
    (records_off, records_on, off_tp, on_tp)
  in
  Printf.printf "  end-to-end pipeline, static tier off vs on:\n";
  let _, _, _, lavamd_on = e2e "lavamd" in
  ignore (e2e "nn");
  ignore (e2e "backprop");
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.reset registry;
  Telemetry.Registry.set_enabled true;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Static instructions whose logging the static tier pruned \
              (bench subset)"
       registry key_static_pruned)
    !tot_static;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Static instructions considered in the bench subset" registry
       "barracuda_bench_static_insns_total")
    !tot_insns;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Whole-subset static analysis time, microseconds" registry
       "barracuda_bench_static_analyze_us")
    (int_of_float (!tot_analyze_ms *. 1e3));
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"lavamd end-to-end throughput with static pruning (unpruned \
              accesses per second)"
       registry key_static_on)
    (int_of_float lavamd_on);
  Telemetry.Registry.set_enabled false;
  warn_on_regression ~baseline:static_baseline_json ~key:key_static_on
    ~label:"static-pruned pipeline throughput" ~fresh:lavamd_on ();
  (match scan_baseline static_baseline_json key_static_pruned with
  | Some old when !tot_static < old ->
      Printf.printf
        "::warning::static tier prunes fewer instructions than the \
         checked-in baseline (%d -> %d)\n"
        old !tot_static
  | _ -> ());
  Telemetry.Export.write_json ~path:"BENCH_static.json" registry;
  Printf.printf "  wrote BENCH_static.json (%d workloads)\n"
    (List.length subset)

(* ------------------------------------------------------------------ *)
(* Automated repair -> BENCH_repair.json                               *)

let repair_baseline_json = "bench/baseline_repair.json"
let key_repair_fixed = "barracuda_bench_repair_fixed_total"
let key_repair_cases_per_sec = "barracuda_bench_repair_cases_per_sec"

let section_repair () =
  header "Automated repair: bug-suite scoreboard and throughput \
          (BENCH_repair.json)";
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.reset registry;
  Telemetry.Registry.set_enabled true;
  let cases = Bugsuite.Cases.all in
  let t0 = Telemetry.Clock.now_ns () in
  let score = Bugsuite.Harness.run_repair cases in
  let wall_s = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
  Telemetry.Registry.set_enabled false;
  Printf.printf
    "  %d cases: %d fixed, %d already clean, %d unfixable (%d candidates \
     rejected) in %.2fs\n"
    (List.length cases) score.Bugsuite.Harness.fixed
    score.Bugsuite.Harness.clean score.Bugsuite.Harness.unfixable
    score.Bugsuite.Harness.fix_rejected wall_s;
  Printf.printf "  %-12s %6s %6s %10s\n" "family" "fixed" "racy" "rejected";
  List.iter
    (fun (f, (s : Bugsuite.Harness.repair_score)) ->
      if s.Bugsuite.Harness.fixed + s.Bugsuite.Harness.unfixable > 0 then
        Printf.printf "  %-12s %6d %6d %10d\n" f s.Bugsuite.Harness.fixed
          (s.Bugsuite.Harness.fixed + s.Bugsuite.Harness.unfixable)
          s.Bugsuite.Harness.fix_rejected)
    (Bugsuite.Harness.repair_families score);
  let tried =
    List.fold_left
      (fun acc (o : Bugsuite.Harness.repair_outcome) ->
        acc + o.Bugsuite.Harness.result.Repair.Engine.candidates_tried)
      0 score.Bugsuite.Harness.repair_outcomes
  in
  let cases_per_sec = float_of_int (List.length cases) /. wall_s in
  Printf.printf
    "  %d candidate validations, %.0f cases/s end-to-end\n" tried
    cases_per_sec;
  Telemetry.Registry.set_enabled true;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Bug-suite cases the repair engine fixed" registry
       key_repair_fixed)
    score.Bugsuite.Harness.fixed;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Bug-suite cases no candidate fix survived validation for"
       registry "barracuda_bench_repair_unfixable_total")
    score.Bugsuite.Harness.unfixable;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Candidate fixes that entered validation over the bug suite"
       registry "barracuda_bench_repair_candidates_tried")
    tried;
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Whole-suite repair wall time, milliseconds" registry
       "barracuda_bench_repair_ms")
    (int_of_float (wall_s *. 1e3));
  Telemetry.Metric.gauge_set
    (Telemetry.Registry.gauge
       ~help:"Repair throughput: bug-suite cases diagnosed and (when racy) \
              fixed per second"
       registry key_repair_cases_per_sec)
    (int_of_float cases_per_sec);
  Telemetry.Registry.set_enabled false;
  warn_on_regression ~baseline:repair_baseline_json
    ~key:key_repair_cases_per_sec ~label:"repair end-to-end throughput"
    ~fresh:cases_per_sec ();
  (match scan_baseline repair_baseline_json key_repair_fixed with
  | Some old when score.Bugsuite.Harness.fixed < old ->
      Printf.printf
        "::warning::repair fixes fewer bug-suite cases than the checked-in \
         baseline (%d -> %d)\n"
        old score.Bugsuite.Harness.fixed
  | _ -> ());
  Telemetry.Export.write_json ~path:"BENCH_repair.json" registry;
  Printf.printf "  wrote BENCH_repair.json (%d cases)\n" (List.length cases)

(* ------------------------------------------------------------------ *)
(* Fleet mode: multi-tenant soak + campaign -> BENCH_fleet.json        *)

let fleet_baseline_json = "bench/baseline_fleet.json"
let key_fleet_jobs_per_sec = "barracuda_bench_fleet_jobs_per_sec"
let key_fleet_p99_ms = "barracuda_bench_fleet_p99_ms"

(* A timed mixed-workload soak: several quota'd tenants hammer the
   daemon from client domains while the background fault campaign
   sweeps at its duty cycle.  Reports per-tenant client-observed
   latency, quota rejects absorbed by the retry loop, and how far the
   campaign got on the scraps of idle time. *)
let section_fleet () =
  header
    "Fleet mode: multi-tenant soak with background campaign \
     (BENCH_fleet.json)";
  let registry = Telemetry.Registry.default in
  Telemetry.Registry.reset registry;
  Telemetry.Registry.set_enabled true;
  let tenants = 3 and domains_per_tenant = 2 and jobs_per_domain = 8 in
  let mix = kernel_mix () in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda-fleet-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* Tight enough that bursty submits hit the bucket and exercise the
     client's retry-after loop, loose enough that the soak still
     finishes promptly. *)
  let quota = { Service.Scheduler.rate = 50.0; burst = 2; seats = 2 } in
  let tenant_quotas =
    List.init tenants (fun i -> (Printf.sprintf "tenant%d" i, quota))
  in
  let server =
    Service.Server.start
      ~config:
        {
          Service.Server.default_config with
          Service.Server.socket_path = socket;
          workers = 4;
          queue_capacity = 128;
          tenant_quotas;
        }
      ()
  in
  if not (Service.Client.wait_ready ~socket ()) then
    failwith "fleet bench: service did not come up";
  let campaign_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda-fleet-bench-%d" (Unix.getpid ()))
  in
  (try Sys.remove (Campaign.Journal.path ~dir:campaign_dir)
   with Sys_error _ -> ());
  let daemon =
    match
      Campaign.Daemon.start
        ~config:
          {
            Campaign.Daemon.seed = 42;
            cases = 4;
            trials = 6;
            batch = 8;
            duty = 0.5;
            load = (fun () -> Service.Server.load server);
          }
        ~dir:campaign_dir ()
    with
    | Ok d -> d
    | Error e -> failwith ("fleet bench: campaign: " ^ e)
  in
  Service.Server.set_campaign_hook server (fun () ->
      Some (Campaign.Daemon.status daemon));
  let t0 = Telemetry.Clock.now_ns () in
  let client tenant c =
    Array.init jobs_per_domain (fun j ->
        let base =
          mix.((c + (j * domains_per_tenant)) mod Array.length mix)
        in
        let sub = { base with Service.Protocol.tenant = Some tenant } in
        let s0 = Telemetry.Clock.now_ns () in
        (match Service.Client.submit ~retries:100 ~socket sub with
        | Ok (Service.Protocol.Result _) -> ()
        | Ok r ->
            Printf.ksprintf failwith "fleet job got %s"
              (Service.Protocol.encode_response r)
        | Error e -> Printf.ksprintf failwith "fleet job: %s" e);
        Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:s0))
  in
  let doms =
    List.concat
      (List.init tenants (fun ti ->
           let name = Printf.sprintf "tenant%d" ti in
           List.init domains_per_tenant (fun c ->
               (name, Domain.spawn (fun () -> client name c)))))
  in
  let by_tenant = Hashtbl.create 8 in
  List.iter
    (fun (name, d) ->
      let samples = Array.to_list (Domain.join d) in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_tenant name)
      in
      Hashtbl.replace by_tenant name (samples @ prev))
    doms;
  let wall_s = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0) in
  (* Let the campaign use the now-idle service briefly so the status
     join below has sweep progress to show. *)
  Thread.delay 0.3;
  let st =
    match Service.Client.status ~socket with
    | Ok s -> s
    | Error e -> Printf.ksprintf failwith "fleet status: %s" e
  in
  Campaign.Daemon.stop daemon;
  let campaign = Campaign.Daemon.status daemon in
  Service.Server.stop server;
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let rejected_of name =
    match
      List.find_opt
        (fun (t : Service.Protocol.tenant_status) ->
          t.Service.Protocol.t_name = name)
        st.Service.Protocol.tenants
    with
    | Some t -> t.Service.Protocol.t_rejected
    | None -> 0
  in
  Printf.printf "  %-10s %6s %9s %9s %9s\n" "tenant" "jobs" "p50 ms"
    "p99 ms" "rejects";
  let all = ref [] in
  List.iter
    (fun ti ->
      let name = Printf.sprintf "tenant%d" ti in
      let samples =
        Option.value ~default:[] (Hashtbl.find_opt by_tenant name)
      in
      all := samples @ !all;
      let sorted = Array.of_list (List.sort compare samples) in
      Printf.printf "  %-10s %6d %9.2f %9.2f %9d\n" name
        (List.length samples) (percentile sorted 0.5)
        (percentile sorted 0.99) (rejected_of name))
    (List.init tenants (fun i -> i));
  let jobs = tenants * domains_per_tenant * jobs_per_domain in
  let thr = float_of_int jobs /. wall_s in
  let sorted_all = Array.of_list (List.sort compare !all) in
  let p99_all = percentile sorted_all 0.99 in
  let rejects_total =
    List.fold_left
      (fun acc (t : Service.Protocol.tenant_status) ->
        acc + t.Service.Protocol.t_rejected)
      0 st.Service.Protocol.tenants
  in
  Printf.printf
    "  %d jobs in %.2fs (%.1f jobs/s), overall p99 %.2f ms, %d quota \
     rejects retried\n"
    jobs wall_s thr p99_all rejects_total;
  Printf.printf
    "  campaign alongside: %d/%d trials in %d batches, silent-wrong %d%s\n"
    campaign.Service.Protocol.ca_trials campaign.Service.Protocol.ca_total
    campaign.Service.Protocol.ca_batches
    campaign.Service.Protocol.ca_silent_wrong
    (if campaign.Service.Protocol.ca_silent_wrong > 0 then
       "  ** SILENT CORRUPTION **"
     else "");
  if campaign.Service.Protocol.ca_silent_wrong > 0 then
    Printf.printf
      "::warning::fleet campaign observed silent-wrong results under \
       fault injection\n";
  let gauge key help v =
    Telemetry.Metric.gauge_set
      (Telemetry.Registry.gauge ~help registry key)
      v
  in
  gauge key_fleet_jobs_per_sec
    "Mixed-tenant soak throughput with the campaign running"
    (int_of_float thr);
  gauge key_fleet_p99_ms "Overall client-observed p99 latency, milliseconds"
    (int_of_float (Float.ceil p99_all));
  gauge "barracuda_bench_fleet_quota_rejects"
    "Quota rejects absorbed by the client retry loop during the soak"
    rejects_total;
  gauge "barracuda_bench_fleet_campaign_trials"
    "Fault-campaign trials completed on idle time during the soak"
    campaign.Service.Protocol.ca_trials;
  gauge "barracuda_bench_fleet_silent_wrong"
    "Silent-wrong trials observed by the background campaign"
    campaign.Service.Protocol.ca_silent_wrong;
  Telemetry.Registry.set_enabled false;
  warn_on_regression ~baseline:fleet_baseline_json
    ~key:key_fleet_jobs_per_sec ~label:"fleet soak throughput" ~fresh:thr ();
  (match scan_baseline fleet_baseline_json key_fleet_p99_ms with
  | Some old when p99_all > 4.0 *. float_of_int (max 1 old) ->
      Printf.printf
        "::warning::fleet p99 latency regressed vs the checked-in \
         baseline (%d ms -> %.0f ms)\n"
        old p99_all
  | _ -> ());
  Telemetry.Registry.set_enabled true;
  Telemetry.Export.write_json ~path:"BENCH_fleet.json" registry;
  Telemetry.Registry.set_enabled false;
  Printf.printf "  wrote BENCH_fleet.json (%d tenants)\n" tenants

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let section_bechamel () =
  header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let subset = [ "backprop"; "hashtable"; "pathfinder"; "d_scan"; "dxtc" ] in
  let tests =
    List.concat_map
      (fun name ->
        let w = Workloads.Registry.find name in
        [
          Test.make
            ~name:(Printf.sprintf "table1.native.%s" name)
            (Staged.stage (fun () -> ignore (W.run_native w)));
          Test.make
            ~name:(Printf.sprintf "figure10.pipeline.%s" name)
            (Staged.stage (fun () ->
                 ignore
                   (W.run ~inst:(Instrument.Pass.instrument w.W.kernel) w)));
        ])
      subset
    @ [
        Test.make ~name:"figure9.instrument.dxtc"
          (Staged.stage (fun () ->
               ignore
                 (Instrument.Pass.instrument
                    (Workloads.Registry.find "dxtc").W.kernel)));
        Test.make ~name:"figure4.litmus.mp-cta-cta"
          (Staged.stage (fun () ->
               ignore
                 (Memmodel.Litmus.weak_count Memmodel.Arch.k520
                    (Memmodel.Litmus.mp ~fence1:Ptx.Ast.Cta ~fence2:Ptx.Ast.Cta)
                    ~runs:1000 ~seed:1)));
        Test.make ~name:"s6_1.bugsuite.barracuda"
          (Staged.stage (fun () ->
               ignore (Bugsuite.Harness.run_barracuda Bugsuite.Cases.all)));
      ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "  %-34s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Toolkit.Instance.one; clock ] elt in
          let result = Analyze.one ols clock raw in
          match Analyze.OLS.estimates result with
          | Some (est :: _) ->
              Printf.printf "  %-34s %16.0f\n" (Test.Elt.name elt) est
          | Some [] | None ->
              Printf.printf "  %-34s %16s\n" (Test.Elt.name elt) "n/a")
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("6.1", section_61);
    ("figure4", section_figure4);
    ("table1", section_table1);
    ("figure9", section_figure9);
    ("figure10", section_figure10);
    ("ptvc", section_ptvc);
    ("queues", section_queues);
    ("granularity", section_granularity);
    ("scaling", section_scaling);
    ("pipeline", section_pipeline);
    ("predict", section_predict);
    ("service", section_service);
    ("shard", section_shard);
    ("stream", section_stream);
    ("static", section_static);
    ("repair", section_repair);
    ("fleet", section_fleet);
    ("bechamel", section_bechamel);
  ]

let () =
  let requested =
    Sys.argv |> Array.to_list |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let selected =
    if requested = [] then sections
    else
      List.filter
        (fun (name, _) ->
          List.exists
            (fun r ->
              String.length r <= String.length name
              && String.sub name 0 (String.length r) = r)
            requested)
        sections
  in
  Printf.printf "BARRACUDA evaluation harness (%d section%s)\n"
    (List.length selected)
    (if List.length selected = 1 then "" else "s");
  List.iter (fun (_, f) -> f ()) selected
