(* The barracuda command-line tool.

     barracuda check FILE.ptx [--blocks N] [--tpb N] ...   race-check a kernel
     barracuda profile FILE.ptx                            per-stage telemetry
     barracuda instrument FILE.ptx [--no-prune]            show rewritten PTX
     barracuda analyze FILE.ptx [--json]                    static race verdicts
     barracuda repair FILE.ptx [--json] [--out DIR]         propose a minimal fix
     barracuda suite [--json]                               run the 66-program suite
     barracuda litmus [--runs N]                            fence litmus tests
     barracuda table1                                       workload summary
     barracuda serve [--socket PATH] [--workers N]          race-checking daemon
     barracuda submit FILE [--kind check|predict]           send a job to the daemon
     barracuda stream FILE --trace REC [--chunk N]          stream a recording to the daemon
     barracuda svc-status [--prometheus]                    query the daemon (= fleet-status)

   Exit codes: 0 = clean, 1 = race found (or an I/O error), 2 = bad
   input — argument specs, PTX/trace parse errors, ill-formed kernels —
   or a run its step budget stopped, which is no verdict. *)

open Cmdliner

(* Every command body runs under this guard: user-input mistakes that
   used to escape as an OCaml backtrace become a one-line error (with a
   usage hint where one applies) and exit code 2, distinct from exit 1
   (race found / I/O error). *)
let guard f =
  try f () with
  | Service.Exec.Bad_args msg ->
      Format.eprintf "barracuda: %s@." msg;
      Format.eprintf
        "hint: argument specs are alloc:BYTES, int:V or a bare integer; see \
         --help.@.";
      2
  | Failure msg ->
      Format.eprintf "barracuda: %s@." msg;
      2
  | Ptx.Parser.Error { line; message } ->
      Format.eprintf "barracuda: PTX parse error at line %d: %s@." line message;
      Format.eprintf "hint: the accepted PTX subset is described in README.md.@.";
      2
  | Gtrace.Serialize.Parse_error { line; message } ->
      Format.eprintf "barracuda: trace parse error at line %d: %s@." line
        message;
      Format.eprintf
        "hint: traces come from barracuda check --dump-trace FILE.@.";
      2
  | Invalid_argument msg ->
      Format.eprintf "barracuda: invalid input: %s@." msg;
      2
  | Gpu_runtime.Session.Stopped n ->
      Format.eprintf "barracuda: %s@." (Gpu_runtime.Session.stopped_message n);
      2
  | Sys_error msg ->
      Format.eprintf "barracuda: %s@." msg;
      1
  | Unix.Unix_error (Unix.EADDRINUSE, _, path) ->
      Format.eprintf "barracuda: %s: address already in use@." path;
      Format.eprintf
        "hint: a daemon is already listening there; check it with \
         svc-status or pick another --socket.@.";
      1
  | Unix.Unix_error (e, _, arg) ->
      Format.eprintf "barracuda: %s%s@."
        (if arg = "" then "" else arg ^ ": ")
        (Unix.error_message e);
      1

let layout_term =
  let blocks =
    Arg.(value & opt int 2 & info [ "blocks" ] ~docv:"N" ~doc:"Thread blocks in the grid.")
  in
  let tpb =
    Arg.(value & opt int 64 & info [ "tpb" ] ~docv:"N" ~doc:"Threads per block.")
  in
  let warp =
    Arg.(value & opt int 32 & info [ "warp" ] ~docv:"N" ~doc:"Warp size.")
  in
  (* Built when the command runs, under [guard]: a dimension below 1 is
     a one-line input error (exit 2) naming its option. *)
  let make blocks tpb warp () =
    List.iter
      (fun (opt, v) ->
        if v < 1 then failwith (Printf.sprintf "--%s must be at least 1" opt))
      [ ("blocks", blocks); ("tpb", tpb); ("warp", warp) ];
    Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks
  in
  Term.(const make $ blocks $ tpb $ warp)

let file_term =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ptx")

(* Kernel arguments: "alloc:BYTES" allocates global memory and passes
   the base address; "int:V" (or a bare integer) passes the value. *)
let args_term =
  Arg.(
    value & opt_all string []
    & info [ "a"; "arg" ] ~docv:"SPEC"
        ~doc:
          "Kernel argument, in declaration order: $(b,alloc:BYTES) to \
           allocate device memory, $(b,int:V) (or a bare integer) for a \
           scalar. Missing arguments default to $(b,alloc:4096).")

let read_file file = In_channel.with_open_bin file In_channel.input_all
let load_kernel file = Ptx.Parser.kernel_of_string (read_file file)

let print_machine_result kernel (result : Simt.Machine.result) =
  Format.printf "kernel %s: %d warp instructions executed (%s)@."
    kernel.Ptx.Ast.kname result.Simt.Machine.dyn_instructions
    (match result.Simt.Machine.status with
    | Simt.Machine.Completed -> "completed"
    | Simt.Machine.Max_steps n -> Printf.sprintf "stopped at %d steps" n
    | Simt.Machine.Deadline n ->
        Printf.sprintf "stopped at the wall-clock deadline after %d steps" n)

let print_degraded_caveat report =
  if Barracuda.Report.degraded report then begin
    let i = Barracuda.Report.integrity report in
    Format.printf
      "warning: degraded transport — %d corrupt record%s skipped, %d \
       record%s lost, %d stale/duplicate, %d orphaned branch record%s; \
       the verdict may be missing evidence.@."
      i.Barracuda.Report.corrupt
      (if i.Barracuda.Report.corrupt = 1 then "" else "s")
      i.Barracuda.Report.gaps
      (if i.Barracuda.Report.gaps = 1 then "" else "s")
      i.Barracuda.Report.stale i.Barracuda.Report.desync
      (if i.Barracuda.Report.desync = 1 then "" else "s")
  end

(* Races and barrier divergences print under their own headers; the
   exit code follows the race verdict alone, as the daemon's does. *)
let print_verdict report =
  let races, divergences =
    List.partition
      (function
        | Barracuda.Report.Race _ -> true
        | Barracuda.Report.Barrier_divergence _ -> false)
      (Barracuda.Report.errors report)
  in
  let print_errors = List.iter (Format.printf "  %a@." Barracuda.Report.pp_error) in
  let racy = Barracuda.Report.has_race report in
  print_degraded_caveat report;
  if racy then begin
    Format.printf "%d distinct races detected:@."
      (Barracuda.Report.race_count report);
    print_errors races
  end
  else Format.printf "no races detected.@.";
  if divergences <> [] then begin
    let n = List.length divergences in
    Format.printf "barrier divergence in %d warp%s:@." n
      (if n = 1 then "" else "s");
    print_errors divergences
  end;
  if racy then 1 else 0

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the metric registry as JSON to \
           $(docv) ($(b,-) for stdout).  The run and its verdict are \
           the same as without telemetry; the execute and detect stage \
           spans are populated.")

(* A JSON document to [path], or to stdout for "-". *)
let write_json ~what path json =
  if path = "-" then print_endline json
  else begin
    Out_channel.with_open_bin path (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Format.printf "%s written to %s@." what path
  end

let enable_telemetry () =
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default

let write_metrics path =
  write_json ~what:"metrics" path
    (Telemetry.Export.to_json_string Telemetry.Registry.default)

(* --metrics: telemetry on, from zero, for the command's run, and the
   registry written once the command has printed its result. *)
let with_metrics metrics f =
  if metrics <> None then enable_telemetry ();
  let code = f () in
  Option.iter write_metrics metrics;
  code

let check_cmd =
  let run layout file specs max_reports dump_trace metrics shards record =
    guard @@ fun () ->
    let layout = layout () in
    if shards < 1 then failwith "--shards must be at least 1";
    with_metrics metrics @@ fun () ->
    let kernel = load_kernel file in
    let machine = Simt.Machine.create ~layout () in
    let args = Service.Exec.resolve_args machine kernel specs in
    let detector = { Barracuda.Detector.default_config with max_reports } in
    (* One code path: the flags only pick a backend (--shards), a raw
       event tap (--dump-trace), a capture (--record) or telemetry
       (--metrics); none of them changes the verdict. *)
    let sink = Shard.Stream.sink_for ~config:detector ~layout ~shards kernel in
    let trace = ref [] in
    let tap =
      Option.map
        (fun _ ->
          let infer =
            Gtrace.Infer.create ~layout
              (Static.Plan.roles (Static.Plan.of_kernel kernel))
          in
          fun ev ->
            trace := List.rev_append (Gtrace.Infer.feed infer ev) !trace)
        dump_trace
    in
    let capture = Option.map (fun _ -> Buffer.create 65536) record in
    let result =
      Gpu_runtime.Session.run_stream ~detector ?sink ?capture ?tap ~machine
        kernel args
    in
    Gpu_runtime.Session.check_budget result;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Gtrace.Serialize.to_channel ~layout oc (List.rev !trace);
        close_out oc;
        Format.printf "trace written to %s@." path)
      dump_trace;
    (match (record, capture) with
    | Some path, Some buf ->
        Gpu_runtime.Stream.write_file path ~layout buf;
        Format.printf "stream recorded to %s (%d records)@." path
          result.Gpu_runtime.Session.sr_records
    | _ -> ());
    print_machine_result kernel result.Gpu_runtime.Session.sr_machine_result;
    print_verdict result.Gpu_runtime.Session.sr_report
  in
  let max_reports =
    Arg.(value & opt int 50 & info [ "max-reports" ] ~docv:"N"
           ~doc:"Maximum reports to print.")
  in
  let dump_trace =
    Arg.(value & opt (some string) None
           & info [ "dump-trace" ] ~docv:"FILE"
               ~doc:"Write the abstract trace (paper 3.1) to FILE for \
                     offline replay.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Detector domains to shard detection across (default 1, the \
             serial detector).  Shadow state is partitioned \
             deterministically; verdicts are identical at every shard \
             count.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Record the sealed wire-record stream (with store values) to \
             $(docv) while checking.  The recording replays through \
             $(b,barracuda stream) with a bitwise-identical verdict.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Race-check a PTX kernel on the simulator.")
    Term.(
      const run $ layout_term $ file_term $ args_term $ max_reports
      $ dump_trace $ metrics_term $ shards $ record)

let profile_cmd =
  let run layout file specs metrics prom =
    guard @@ fun () ->
    let layout = layout () in
    let kernel = load_kernel file in
    let machine = Simt.Machine.create ~layout () in
    let args = Service.Exec.resolve_args machine kernel specs in
    enable_telemetry ();
    (* The deployed configuration: block + static pruning, so the
       profile measures the overhead the in-process tool would pay. *)
    let t0 = Telemetry.Clock.now_ns () in
    let inst = Instrument.Pass.instrument ~layout kernel in
    let result = Gpu_runtime.Session.run_stream ~inst ~machine kernel args in
    let total_ns = Telemetry.Clock.elapsed_ns ~since:t0 in
    print_machine_result kernel result.Gpu_runtime.Session.sr_machine_result;
    Format.printf "@.%-24s %8s %12s %12s %8s@." "stage" "calls" "total ms"
      "mean us" "share";
    List.iter
      (fun (r : Telemetry.Span.row) ->
        let name = if r.nested then "  " ^ r.stage else r.stage in
        let calls, mean_us =
          if r.calls = 0 then ("", "")
          else
            ( string_of_int r.calls,
              Printf.sprintf "%.3f"
                (Int64.to_float r.ns /. 1e3 /. float_of_int r.calls) )
        in
        Format.printf "%-24s %8s %12.3f %12s %7.1f%%@." name calls
          (Telemetry.Clock.ns_to_ms r.ns) mean_us r.share)
      (Telemetry.Span.breakdown ~stages:Gpu_runtime.Session.profile_stages
         ~wall_ns:total_ns (Telemetry.Span.totals ()));
    Format.printf "%-24s %8s %12.3f %12s %7.1f%%@." "wall" ""
      (Telemetry.Clock.ns_to_ms total_ns) "" 100.0;
    let c = Telemetry.Registry.find_counter Telemetry.Registry.default in
    Format.printf "@.counters@.";
    List.iter
      (fun (label, v) -> Format.printf "  %-34s %12d@." label v)
      [
        ("logging pruned (block)", c "barracuda_instrument_pruned_block_total");
        ("logging pruned (static)", c "barracuda_instrument_pruned_static_total");
        ("records shipped", result.Gpu_runtime.Session.sr_records);
        ("instructions retired", c "barracuda_simt_instructions_retired_total");
        ("divergent branches", c "barracuda_simt_divergent_branches_total");
        ("detector records", c "barracuda_detector_records_total");
        ("records planned out", c "barracuda_detector_planned_out_total");
        ("detector checks", c "barracuda_detector_checks_total");
        ("epoch fast-path checks", c "barracuda_detector_epoch_fast_total");
        ("full vector-clock scans", c "barracuda_detector_vc_full_total");
        ("race observations", c "barracuda_detector_races_total");
      ];
    Format.printf "@.%d distinct races reported.@."
      (Barracuda.Report.race_count result.Gpu_runtime.Session.sr_report);
    Option.iter write_metrics metrics;
    (match prom with
    | Some path -> (
        match open_out path with
        | oc ->
            output_string oc
              (Telemetry.Export.to_prometheus Telemetry.Registry.default);
            close_out oc;
            Format.printf "prometheus metrics written to %s@." path
        | exception Sys_error msg ->
            Format.eprintf "barracuda: cannot write metrics: %s@." msg;
            exit 1)
    | None -> ());
    0
  in
  let prom =
    Arg.(value & opt (some string) None
           & info [ "prometheus" ] ~docv:"FILE"
               ~doc:"Also write the registry in Prometheus text format.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Check the kernel with its deployed instrumentation and telemetry \
          enabled, and print a per-stage time/count breakdown.")
    Term.(const run $ layout_term $ file_term $ args_term $ metrics_term $ prom)

let load_trace file =
  let layout, ops =
    In_channel.with_open_text file Gtrace.Serialize.of_channel
  in
  (match Gtrace.Feasible.check ~layout ops with
  | Ok () -> ()
  | Error v ->
      Format.printf "warning: trace is not feasible: %a@."
        Gtrace.Feasible.pp_violation v);
  (layout, ops)

let replay_cmd =
  let run file =
    guard @@ fun () ->
    let layout, ops = load_trace file in
    let r = Barracuda.Reference.create ~layout () in
    Barracuda.Reference.run r ops;
    Format.printf "%d operations replayed on %a@." (List.length ops)
      Vclock.Layout.pp layout;
    print_verdict (Barracuda.Reference.report r)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Race-check a trace file produced by check --dump-trace.")
    Term.(const run $ file_term)

let predict_cmd =
  let run file json witness_dir max_predictions no_validate metrics =
    guard @@ fun () ->
    with_metrics metrics @@ fun () ->
    let layout, ops = load_trace file in
    let config =
      { Predict.Analysis.max_predictions; validate = not no_validate }
    in
    let a = Predict.Analysis.run ~config ~layout ops in
    if json then
      print_endline (Telemetry.Json.to_string (Predict.Analysis.to_json a))
    else Format.printf "@[<v>%a@]@." Predict.Analysis.pp a;
    (match witness_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i (p : Predict.Analysis.prediction) ->
            match p.Predict.Analysis.witness with
            | None -> ()
            | Some w ->
                let path =
                  Filename.concat dir (Printf.sprintf "witness-%d.trace" (i + 1))
                in
                let oc = open_out path in
                Gtrace.Serialize.to_channel ~layout oc w.Predict.Witness.ops;
                close_out oc;
                if not json then
                  Format.printf "witness for #%d written to %s@." (i + 1) path)
          a.Predict.Analysis.predictions);
    if Predict.Analysis.has_race a then 1 else 0
  in
  let json =
    Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let witness_dir =
    Arg.(value & opt (some string) None
           & info [ "witness-dir" ] ~docv:"DIR"
               ~doc:
                 "Write each prediction's witness schedule as a trace file \
                  under $(docv); re-check one with $(b,barracuda replay).")
  in
  let max_predictions =
    Arg.(value
           & opt int Predict.Analysis.default_config.Predict.Analysis.max_predictions
           & info [ "max-predictions" ] ~docv:"N"
               ~doc:"Cap on emitted predictions.")
  in
  let no_validate =
    Arg.(value & flag
           & info [ "no-validate" ]
               ~doc:"Skip witness replay validation (all predictions stay \
                     unconfirmed).")
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict schedule-sensitive races in a recorded trace: build the \
          sync-preserving happens-before graph, enumerate conflicting pairs \
          it leaves unordered, and validate each prediction with a witness \
          schedule replayed through the reference detector.")
    Term.(
      const run $ file_term $ json $ witness_dir $ max_predictions
      $ no_validate $ metrics_term)

let instrument_cmd =
  let run file prune static stats_only =
    guard @@ fun () ->
    let kernel = load_kernel file in
    let r =
      Instrument.Pass.instrument ~prune ~static
        ~layout:Service.Exec.default_layout kernel
    in
    if not stats_only then
      print_string (Ptx.Printer.kernel_to_string r.Instrument.Pass.kernel);
    Format.printf "// %a@." Instrument.Stats.pp r.Instrument.Pass.stats;
    0
  in
  let prune =
    Arg.(value & flag & info [ "no-prune" ]
           ~doc:"Disable intra-basic-block logging pruning.")
    |> Term.map not
  in
  let static =
    Arg.(value & flag & info [ "no-static" ]
           ~doc:"Disable static-analysis logging pruning.")
    |> Term.map not
  in
  let stats_only =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics only.")
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:
         "Rewrite a PTX kernel with BARRACUDA logging calls.  The static \
          tier drops the logging its check plan proves safe on a 1-D \
          launch.")
    Term.(const run $ file_term $ prune $ static $ stats_only)

(* ------------------------- static analysis ----------------------- *)

let analyze_json kernel layout (a : Static.Analysis.t) =
  let module J = Telemetry.Json in
  let realizable = Static.Analysis.realizable_pairs a ~layout in
  let verdict_obj i v =
    let base =
      [
        ("insn", J.Int i);
        ("verdict", J.Str (Static.Analysis.verdict_name v));
        ("class", J.Str (Static.Analysis.klass_name (Static.Analysis.klass a i)));
        ( "text",
          J.Str
            (Format.asprintf "%a" Ptx.Printer.pp_insn
               kernel.Ptx.Ast.body.(i)) );
      ]
    in
    match v with
    | Static.Analysis.Safe r ->
        J.Obj (base @ [ ("reason", J.Str (Static.Analysis.reason_name r)) ])
    | _ -> J.Obj base
  in
  let verdicts = ref [] in
  Array.iteri
    (fun i _ ->
      match Static.Analysis.verdict a i with
      | Some v -> verdicts := verdict_obj i v :: !verdicts
      | None -> ())
    kernel.Ptx.Ast.body;
  let pair_obj (p : Static.Analysis.racy_pair) =
    J.Obj
      [
        ("a", J.Int p.Static.Analysis.a_insn);
        ("b", J.Int p.Static.Analysis.b_insn);
        ( "space",
          J.Str
            (match p.Static.Analysis.pair_space with
            | Ptx.Ast.Shared -> "shared"
            | _ -> "global") );
        ( "base",
          match p.Static.Analysis.base_param with
          | Some b -> J.Str b
          | None -> J.Null );
        ("addr", J.Int (Int64.to_int p.Static.Analysis.addr));
        ("width", J.Int p.Static.Analysis.pair_width);
        ("realizable", J.Bool (List.memq p realizable));
      ]
  in
  let safe, racy, unknown = Static.Analysis.counts a in
  J.Obj
    [
      ("kernel", J.Str kernel.Ptx.Ast.kname);
      ("instructions", J.Int (Array.length kernel.Ptx.Ast.body));
      ("safe", J.Int safe);
      ("racy", J.Int racy);
      ("unknown", J.Int unknown);
      ("provably_racy", J.Bool (realizable <> []));
      ("verdicts", J.List (List.rev !verdicts));
      ("pairs", J.List (List.map pair_obj (Static.Analysis.pairs a)));
    ]

let analyze_cmd =
  let run layout file json metrics =
    guard @@ fun () ->
    let layout = layout () in
    with_metrics metrics @@ fun () ->
    let kernel = load_kernel file in
    let a = Static.Analysis.analyze kernel in
    let racy_now = Static.Analysis.provably_racy a ~layout in
    if json then
      print_endline (Telemetry.Json.to_string (analyze_json kernel layout a))
    else begin
      let safe, racy, unknown = Static.Analysis.counts a in
      Format.printf
        "kernel %s: %d instructions, %d memory accesses (%d safe / %d racy \
         / %d unknown)@."
        kernel.Ptx.Ast.kname
        (Array.length kernel.Ptx.Ast.body)
        (safe + racy + unknown) safe racy unknown;
      Array.iteri
        (fun i insn ->
          match Static.Analysis.verdict a i with
          | Some v ->
              Format.printf "  %4d  %-12s %-14s %a@." i
                (Static.Analysis.klass_name (Static.Analysis.klass a i))
                (Format.asprintf "%a" Static.Analysis.pp_verdict v)
                Ptx.Printer.pp_insn insn
          | None -> ())
        kernel.Ptx.Ast.body;
      List.iter
        (fun p -> Format.printf "  %a@." Static.Analysis.pp_pair p)
        (Static.Analysis.pairs a);
      if racy_now then
        Format.printf
          "provably racy for %d blocks x %d threads: no execution needed.@."
          layout.Vclock.Layout.blocks layout.Vclock.Layout.threads_per_block
      else if racy + unknown = 0 then
        Format.printf
          "provably race-free: every access is safe; logging fully pruned.@."
      else
        Format.printf "%d access%s left for dynamic checking.@."
          (racy + unknown)
          (if racy + unknown = 1 then "" else "es")
    end;
    if racy_now then 1 else 0
  in
  let json =
    Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the verdicts as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically classify a kernel's memory accesses: provably \
          race-free accesses (whose logging the instrumentation drops), \
          provably racy pairs (reported without executing the kernel), \
          and everything left for dynamic checking.  Exits 1 when the \
          kernel is provably racy for the given layout.")
    Term.(const run $ layout_term $ file_term $ json $ metrics_term)

(* ------------------------- automated repair ----------------------- *)

let repair_json ~original (r : Repair.Engine.result) =
  let module J = Telemetry.Json in
  let d = r.Repair.Engine.diagnosis in
  let base =
    [
      ("verdict", J.Str (Repair.Engine.verdict_name r.Repair.Engine.verdict));
      ("racy", J.Bool d.Repair.Localize.racy);
      ("observed_racy", J.Bool d.Repair.Localize.observed_racy);
      ("predicted_racy", J.Bool d.Repair.Localize.predicted_racy);
      ("static_racy", J.Bool d.Repair.Localize.static_racy);
      ("bardiv", J.Bool d.Repair.Localize.bardiv);
      ( "pairs",
        J.List
          (List.map
             (fun (a, b) -> J.List [ J.Int a; J.Int b ])
             d.Repair.Localize.pairs) );
      ("candidates_total", J.Int r.Repair.Engine.candidates_total);
      ("candidates_tried", J.Int r.Repair.Engine.candidates_tried);
      ( "rejected",
        J.List
          (List.map
             (fun (c, why) ->
               J.Obj [ ("candidate", J.Str c); ("reason", J.Str why) ])
             r.Repair.Engine.rejected) );
    ]
  in
  let fix =
    match r.Repair.Engine.verdict with
    | Repair.Engine.Fixed f ->
        [
          ( "fix",
            J.Obj
              [
                ("description", J.Str f.Repair.Engine.description);
                ( "kind",
                  J.Str (Repair.Candidates.kind_name f.Repair.Engine.kind) );
                ("cost", J.Float f.Repair.Engine.cost);
                ( "sites",
                  J.List (List.map (fun i -> J.Int i) f.Repair.Engine.sites) );
                ("ptx", J.Str f.Repair.Engine.ptx);
                ( "patch",
                  J.Str (Repair.Engine.patch_of ~original f) );
              ] );
        ]
    | _ -> []
  in
  J.Obj (("version", J.Int 1) :: (base @ fix))

let repair_cmd =
  let run layout file specs max_candidates max_steps seed json out metrics =
    guard @@ fun () ->
    let layout = layout () in
    with_metrics metrics @@ fun () ->
    let kernel = load_kernel file in
    let setup machine = Service.Exec.resolve_args machine kernel specs in
    let config =
      {
        Repair.Engine.default_config with
        Repair.Engine.max_candidates;
        max_steps;
        seed;
      }
    in
    let r = Repair.Engine.repair ~config ~layout ~setup kernel in
    let write_out fix =
      match out with
      | None -> ()
      | Some dir ->
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let base = Filename.remove_extension (Filename.basename file) in
          let ptx_path = Filename.concat dir (base ^ ".repaired.ptx") in
          let patch_path = Filename.concat dir (base ^ ".patch") in
          let save path contents =
            let oc = open_out path in
            output_string oc contents;
            close_out oc
          in
          (match fix with
          | Some (f : Repair.Engine.fix) ->
              save ptx_path f.Repair.Engine.ptx;
              save patch_path (Repair.Engine.patch_of ~original:kernel f);
              if not json then
                Format.printf "repaired kernel written to %s, patch to %s@."
                  ptx_path patch_path
          | None -> ())
    in
    if json then begin
      print_endline (Telemetry.Json.to_string (repair_json ~original:kernel r));
      match r.Repair.Engine.verdict with
      | Repair.Engine.Fixed f ->
          write_out (Some f);
          0
      | Repair.Engine.Already_clean -> 0
      | Repair.Engine.Unfixable -> 1
    end
    else begin
      let d = r.Repair.Engine.diagnosis in
      if d.Repair.Localize.racy then begin
        Format.printf "kernel %s is racy (%s%s%s)@." kernel.Ptx.Ast.kname
          (if d.Repair.Localize.observed_racy then "observed" else "")
          (if d.Repair.Localize.predicted_racy then
             (if d.Repair.Localize.observed_racy then ", predicted"
              else "predicted")
           else "")
          (if d.Repair.Localize.static_racy then ", provably static"
           else "");
        List.iter
          (fun (a, b) ->
            Format.printf "  racy pair: insn %d vs insn %d@." a b)
          d.Repair.Localize.pairs
      end;
      match r.Repair.Engine.verdict with
      | Repair.Engine.Already_clean ->
          Format.printf
            "kernel %s is already race-free: nothing to repair.@."
            kernel.Ptx.Ast.kname;
          0
      | Repair.Engine.Fixed f ->
          Format.printf "accepted fix (%d of %d candidates tried): %s@."
            r.Repair.Engine.candidates_tried r.Repair.Engine.candidates_total
            f.Repair.Engine.description;
          List.iter
            (fun (c, why) -> Format.printf "  rejected: %s — %s@." c why)
            r.Repair.Engine.rejected;
          Format.printf "%s@." (Repair.Engine.patch_of ~original:kernel f);
          Format.printf
            "validated: serial x2 (deterministic), sharded parity, \
             predictive schedules, fault slice — all race-free.@.";
          write_out (Some f);
          0
      | Repair.Engine.Unfixable ->
          Format.printf
            "no fix found: %d of %d candidates tried, all rejected.@."
            r.Repair.Engine.candidates_tried r.Repair.Engine.candidates_total;
          List.iter
            (fun (c, why) -> Format.printf "  rejected: %s — %s@." c why)
            r.Repair.Engine.rejected;
          1
    end
  in
  let max_candidates =
    Arg.(value
           & opt int Repair.Engine.default_config.Repair.Engine.max_candidates
           & info [ "max-candidates" ] ~docv:"N"
               ~doc:"Validation budget: candidate fixes tried per kernel.")
  in
  let max_steps =
    Arg.(value & opt int Repair.Engine.default_config.Repair.Engine.max_steps
           & info [ "max-steps" ] ~docv:"N"
               ~doc:"Step budget for each validation run.")
  in
  let seed =
    Arg.(value & opt int Repair.Engine.default_config.Repair.Engine.seed
           & info [ "seed" ] ~docv:"N"
               ~doc:"Seed for the fault-campaign validation slice; the \
                     whole search is deterministic for a fixed seed.")
  in
  let json =
    Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the repair result as JSON.")
  in
  let out =
    Arg.(value & opt (some string) None
           & info [ "out" ] ~docv:"DIR"
               ~doc:"Write the repaired kernel and its patch into $(docv).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Diagnose a racy PTX kernel and search for a minimal fix — \
          atomic promotion, fence strengthening or insertion, or a \
          bar.sync at the CFG phase boundary — accepting only a patch \
          that the unchanged detector (serial and sharded), the \
          predictive schedule explorer and a fault-injection slice all \
          agree is race-free.  Exits 1 when the kernel is racy and no \
          candidate survives validation.")
    Term.(
      const run $ layout_term $ file_term $ args_term $ max_candidates
      $ max_steps $ seed $ json $ out $ metrics_term)

(* The suite scores as JSON, for the service CI smoke job and
   dashboards: overall numbers plus one record per case so a
   regression names the kernel that flipped. *)
let repair_score_json (rp : Bugsuite.Harness.repair_score) =
  let module J = Telemetry.Json in
  let totals (s : Bugsuite.Harness.repair_score) =
    [
      ("fixed", J.Int s.Bugsuite.Harness.fixed);
      ("already_clean", J.Int s.Bugsuite.Harness.clean);
      ("unfixable", J.Int s.Bugsuite.Harness.unfixable);
      ("fix_rejected", J.Int s.Bugsuite.Harness.fix_rejected);
    ]
  in
  let case (o : Bugsuite.Harness.repair_outcome) =
    let fix =
      match o.Bugsuite.Harness.result.Repair.Engine.verdict with
      | Repair.Engine.Fixed f ->
          [ ("fix", J.Str f.Repair.Engine.description) ]
      | _ -> []
    in
    J.Obj
      ([
         ("name", J.Str o.Bugsuite.Harness.case.Bugsuite.Case.name);
         ("family", J.Str (Bugsuite.Harness.family o.Bugsuite.Harness.case));
         ( "verdict",
           J.Str
             (Repair.Engine.verdict_name
                o.Bugsuite.Harness.result.Repair.Engine.verdict) );
         ( "candidates_tried",
           J.Int o.Bugsuite.Harness.result.Repair.Engine.candidates_tried );
       ]
      @ fix)
  in
  J.Obj
    (totals rp
    @ [
        ( "families",
          J.Obj
            (List.map
               (fun (f, s) -> (f, J.Obj (totals s)))
               (Bugsuite.Harness.repair_families rp)) );
        ("cases", J.List (List.map case rp.Bugsuite.Harness.repair_outcomes));
      ])

let suite_json (b : Bugsuite.Harness.score) (r : Bugsuite.Harness.score)
    (po : Bugsuite.Harness.score) (pp_ : Bugsuite.Harness.score)
    (rp : Bugsuite.Harness.repair_score) =
  let module J = Telemetry.Json in
  let score_obj (s : Bugsuite.Harness.score) =
    J.Obj
      [
        ("correct", J.Int s.Bugsuite.Harness.correct);
        ("total", J.Int s.Bugsuite.Harness.total);
      ]
  in
  let outcome (o : Bugsuite.Harness.outcome) =
    J.Obj
      [
        ("id", J.Int o.Bugsuite.Harness.case.Bugsuite.Case.id);
        ("name", J.Str o.Bugsuite.Harness.case.Bugsuite.Case.name);
        ( "truth",
          J.Str
            (Format.asprintf "%a" Bugsuite.Case.pp_verdict
               o.Bugsuite.Harness.case.Bugsuite.Case.verdict) );
        ("reported_race", J.Bool o.Bugsuite.Harness.reported_race);
        ("correct", J.Bool o.Bugsuite.Harness.correct);
      ]
  in
  J.Obj
    [
      ("version", J.Int 1);
      ("barracuda", score_obj b);
      ("racecheck", score_obj r);
      ( "predictive",
        J.Obj [ ("online", score_obj po); ("predict", score_obj pp_) ] );
      ("repair", repair_score_json rp);
      ("cases", J.List (List.map outcome b.Bugsuite.Harness.outcomes));
    ]

let suite_cmd =
  let run verbose json =
    guard @@ fun () ->
    let cases = Bugsuite.Cases.all in
    let b = Bugsuite.Harness.run_barracuda cases in
    let r = Bugsuite.Harness.run_racecheck cases in
    if json then begin
      let pcases = Bugsuite.Cases.predictive in
      let po = Bugsuite.Harness.run_barracuda pcases in
      let pp_ = Bugsuite.Harness.run_predict pcases in
      let rp = Bugsuite.Harness.run_repair cases in
      print_endline (Telemetry.Json.to_string (suite_json b r po pp_ rp));
      if b.Bugsuite.Harness.correct = b.Bugsuite.Harness.total then 0 else 1
    end
    else begin
    if verbose then
      List.iter
        (fun (o : Bugsuite.Harness.outcome) ->
          Format.printf "%3d %-36s truth=%-9s reported=%-5b %s@."
            o.Bugsuite.Harness.case.Bugsuite.Case.id
            o.Bugsuite.Harness.case.Bugsuite.Case.name
            (Format.asprintf "%a" Bugsuite.Case.pp_verdict
               o.Bugsuite.Harness.case.Bugsuite.Case.verdict)
            o.Bugsuite.Harness.reported_race
            (if o.Bugsuite.Harness.correct then "ok" else "WRONG"))
        b.Bugsuite.Harness.outcomes;
    Format.printf "BARRACUDA:      %d/%d@." b.Bugsuite.Harness.correct
      b.Bugsuite.Harness.total;
    Format.printf "CUDA-Racecheck: %d/%d@." r.Bugsuite.Harness.correct
      r.Bugsuite.Harness.total;
    let pcases = Bugsuite.Cases.predictive in
    let po = Bugsuite.Harness.run_barracuda pcases in
    let pp_ = Bugsuite.Harness.run_predict pcases in
    Format.printf
      "schedule-sensitive supplement: online %d/%d, predict %d/%d@."
      po.Bugsuite.Harness.correct po.Bugsuite.Harness.total
      pp_.Bugsuite.Harness.correct pp_.Bugsuite.Harness.total;
    let rp = Bugsuite.Harness.run_repair cases in
    Format.printf "automated repair: %a@." Bugsuite.Harness.pp_repair_score
      (if verbose then rp
       else { rp with Bugsuite.Harness.repair_outcomes = [] });
    List.iter
      (fun (f, s) ->
        if s.Bugsuite.Harness.fixed + s.Bugsuite.Harness.unfixable > 0 then
          Format.printf "  %-12s fixed %d / racy %d@." f
            s.Bugsuite.Harness.fixed
            (s.Bugsuite.Harness.fixed + s.Bugsuite.Harness.unfixable))
      (Bugsuite.Harness.repair_families rp);
    if b.Bugsuite.Harness.correct = b.Bugsuite.Harness.total then 0 else 1
    end
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ]) in
  let json =
    Arg.(value & flag
           & info [ "json" ]
               ~doc:"Emit the scores (and per-case outcomes) as JSON.")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Run the 66-program concurrency bug suite.")
    Term.(const run $ verbose $ json)

let litmus_cmd =
  let run runs =
    List.iter
      (fun r -> Format.printf "%a@." Memmodel.Litmus.pp_row r)
      (Memmodel.Litmus.figure4 ~runs ());
    0
  in
  let runs =
    Arg.(value & opt int 200_000 & info [ "runs" ] ~docv:"N"
           ~doc:"Runs per fence combination.")
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Memory-fence litmus tests (Figure 4).")
    Term.(const run $ runs)

let sweep_cmd =
  let run layout file specs =
    guard @@ fun () ->
    let layout = layout () in
    let kernel = load_kernel file in
    let setup machine = Service.Exec.resolve_args machine kernel specs in
    let result = Gpu_runtime.Warp_sweep.sweep ~layout ~setup kernel in
    Format.printf "%a" Gpu_runtime.Warp_sweep.pp result;
    if result.Gpu_runtime.Warp_sweep.latent then 1 else 0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Hunt for latent warp-size assumptions by race-checking the \
          kernel under several simulated warp widths.")
    Term.(const run $ layout_term $ file_term $ args_term)

let table1_cmd =
  let run () =
    let matches (w : Workloads.Workload.t) =
      let report = (Workloads.Workload.run w).Gpu_runtime.Session.sr_report in
      let s, g = Workloads.Workload.racy_word_counts report in
      Format.printf "%-18s %-9s threads=%-6d shared-races=%-4d global-races=%d@."
        w.Workloads.Workload.name w.Workloads.Workload.suite
        (Workloads.Workload.total_threads w)
        s g;
      let ok = Workloads.Workload.races_match w report in
      if not ok then
        Format.eprintf "barracuda: %s (%s): expected %a@."
          w.Workloads.Workload.name w.Workloads.Workload.suite
          Workloads.Workload.pp_expected w.Workloads.Workload.expected;
      ok
    in
    if List.for_all Fun.id (List.map matches Workloads.Registry.all) then 0
    else 1
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:
         "Race-check the 26 evaluation workloads; exits 1 if any \
          workload's races differ from the ones it seeds.")
    Term.(const run $ const ())

(* ------------------------- service mode -------------------------- *)

let socket_term =
  Arg.(
    value
    & opt string Service.Server.default_config.Service.Server.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket the daemon listens on.")

(* NAME:RATE:BURST:SEATS, e.g. acme:5:10:2.  RATE is jobs/second (0 =
   unlimited); SEATS caps concurrent jobs (0 = unlimited). *)
let parse_tenant_quota spec =
  match String.split_on_char ':' spec with
  | [ name; rate; burst; seats ] when name <> "" -> (
      match
        (float_of_string_opt rate, int_of_string_opt burst,
         int_of_string_opt seats)
      with
      | Some rate, Some burst, Some seats ->
          (name, { Service.Scheduler.rate; burst; seats })
      | _ ->
          failwith
            (Printf.sprintf "bad --tenant-quota %S (want NAME:RATE:BURST:SEATS)"
               spec))
  | _ ->
      failwith
        (Printf.sprintf "bad --tenant-quota %S (want NAME:RATE:BURST:SEATS)"
           spec)

let serve_cmd =
  let run socket workers queue_capacity cache_capacity max_steps deadline_ms
      job_shards sessions quotas campaign_dir campaign_seed campaign_cases
      campaign_trials campaign_batch campaign_duty =
    guard @@ fun () ->
    if job_shards < 1 then failwith "--job-shards must be at least 1";
    if sessions < 0 then failwith "--sessions must be at least 0";
    (* The daemon always runs with telemetry on: the status reply, the
       metrics request and the Prometheus exporter feed from it. *)
    Telemetry.Registry.set_enabled true;
    let tenant_quotas = List.map parse_tenant_quota quotas in
    let config =
      {
        Service.Server.socket_path = socket;
        workers;
        queue_capacity;
        cache_capacity;
        max_steps;
        job_deadline_ms = deadline_ms;
        job_shards;
        session_seats = sessions;
        tenant_quotas;
      }
    in
    (* SIGINT and SIGTERM stop the daemon.  A handler would run only at
       a poll point of a running domain, and an idle daemon has none
       (this thread in [wait], the accept domain in [accept], the
       workers parked), so the two are blocked before the daemon
       spawns its domains and threads, which inherit the mask, and one
       thread takes them with [sigwait]. *)
    let stop_signals = [ Sys.sigint; Sys.sigterm ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
    let t = Service.Server.start ~config () in
    (* The background campaign composes in here — the server cannot
       depend on the campaign layer — running as the lowest-priority
       work in the daemon process, pausing whenever the server carries
       load and checkpointing its journal after every batch. *)
    let campaign =
      match campaign_dir with
      | None -> None
      | Some dir -> (
          let cfg =
            {
              Campaign.Daemon.seed = campaign_seed;
              cases = campaign_cases;
              trials = campaign_trials;
              batch = campaign_batch;
              duty = campaign_duty;
            }
          in
          match
            Campaign.Daemon.start ~config:cfg
              ~load:(fun () -> Service.Server.load t)
              ~dir ()
          with
          | Error message ->
              Service.Server.stop t;
              failwith message
          | Ok d ->
              Service.Server.set_campaign_hook t (fun () ->
                  Some (Campaign.Daemon.status d));
              Some d)
    in
    ignore
      (Thread.create
         (fun () ->
           ignore (Thread.wait_signal stop_signals);
           Service.Server.request_stop t)
         ());
    if job_shards > 1 then
      Format.printf
        "barracuda service listening on %s (%d job seats x %d shards from a \
         %d-domain budget, queue %d, cache %d)@."
        socket (Service.Server.status t).Service.Protocol.workers job_shards
        workers queue_capacity cache_capacity
    else
      Format.printf
        "barracuda service listening on %s (%d workers, %d session seats, \
         queue %d, cache %d)@."
        socket workers sessions queue_capacity cache_capacity;
    List.iter
      (fun (name, q) ->
        Format.printf
          "  tenant %s: %.3g jobs/s (burst %d), %s concurrent@." name
          q.Service.Scheduler.rate q.Service.Scheduler.burst
          (if q.Service.Scheduler.seats > 0 then
             string_of_int q.Service.Scheduler.seats
           else "unlimited"))
      tenant_quotas;
    (match (campaign, campaign_dir) with
    | Some _, Some dir ->
        Format.printf "  background campaign journaling to %s@." dir
    | _ -> ());
    Service.Server.wait t;
    Option.iter Campaign.Daemon.stop campaign;
    Format.printf "barracuda service stopped.@.";
    0
  in
  let workers =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.workers
           & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.queue_capacity
           & info [ "queue" ] ~docv:"N"
               ~doc:"Job queue bound; submissions beyond it are rejected \
                     with a retry hint.")
  in
  let cache =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.cache_capacity
           & info [ "cache" ] ~docv:"N" ~doc:"Artifact cache entries.")
  in
  let max_steps =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.max_steps
           & info [ "max-steps" ] ~docv:"N"
               ~doc:"Per-job step budget; a kernel that exceeds it fails \
                     with a structured timeout.")
  in
  let deadline =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.job_deadline_ms
           & info [ "deadline-ms" ] ~docv:"MS"
               ~doc:"Per-job wall-clock deadline; a kernel that exceeds it \
                     fails with a structured deadline error.  0 disables.")
  in
  let job_shards =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.job_shards
           & info [ "job-shards" ] ~docv:"N"
               ~doc:"Detector domains per job.  Above 1, the --workers \
                     domain budget is split between job seats and \
                     intra-job shards (workers / N seats, at least 1).")
  in
  let sessions =
    Arg.(value
           & opt int Service.Server.default_config.Service.Server.session_seats
           & info [ "sessions" ] ~docv:"N"
               ~doc:"Long-lived streaming-session seats (dedicated \
                     domains, separate from the --workers batch pool).  \
                     0 disables streaming.")
  in
  let quotas =
    Arg.(value & opt_all string []
           & info [ "tenant-quota" ] ~docv:"NAME:RATE:BURST:SEATS"
               ~doc:"Per-tenant admission quota (repeatable): sustained \
                     RATE jobs/s with BURST back-to-back, at most SEATS \
                     concurrent jobs (0 = unlimited).  Tenants without a \
                     quota are unlimited but still scheduled fairly.")
  in
  let campaign_dir =
    Arg.(value & opt (some string) None
           & info [ "campaign" ] ~docv:"DIR"
               ~doc:"Run the continuous background fault campaign inside \
                     the daemon, journaling to $(docv) (resumes an \
                     existing journal).")
  in
  let campaign_seed =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.seed
           & info [ "campaign-seed" ] ~docv:"N"
               ~doc:"Background campaign seed (ignored when resuming).")
  in
  let campaign_cases =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.cases
           & info [ "campaign-cases" ] ~docv:"N"
               ~doc:"Bug-suite cases the background campaign sweeps.")
  in
  let campaign_trials =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.trials
           & info [ "campaign-trials" ] ~docv:"N"
               ~doc:"Background campaign trials per (case, fault class).")
  in
  let campaign_batch =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.batch
           & info [ "campaign-batch" ] ~docv:"N"
               ~doc:"Trials per journal checkpoint.")
  in
  let campaign_duty =
    Arg.(value & opt float Campaign.Daemon.default_config.Campaign.Daemon.duty
           & info [ "campaign-duty" ] ~docv:"FRAC"
               ~doc:"Fraction of idle wall-clock the campaign may use.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the race-checking daemon: a bounded job queue with \
          per-tenant fair scheduling and quotas, a self-healing pool of \
          worker domains, a content-hash artifact cache and an optional \
          continuous background fault campaign behind a Unix domain \
          socket.")
    Term.(const run $ socket_term $ workers $ queue $ cache $ max_steps
          $ deadline $ job_shards $ sessions $ quotas $ campaign_dir
          $ campaign_seed $ campaign_cases $ campaign_trials
          $ campaign_batch $ campaign_duty)

let tenant_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:
          "Tenant the job is accounted (and rate-limited) under; \
           omitted jobs join the daemon's default tenant.")

(* FILE's contents as a submission under [layout]. *)
let submission ~kind ~layout ~tenant file =
  {
    (Service.Protocol.submit_defaults ~kind (read_file file)) with
    Service.Protocol.layout =
      Some
        ( layout.Vclock.Layout.blocks,
          layout.Vclock.Layout.threads_per_block,
          layout.Vclock.Layout.warp_size );
    tenant;
  }

let submit_cmd =
  let run socket layout file specs kind no_static retries json tenant =
    guard @@ fun () ->
    let layout = layout () in
    let kind =
      match Service.Protocol.kind_of_string kind with
      | Some kind -> kind
      | None -> failwith (Printf.sprintf "unknown job kind %S" kind)
    in
    let sub =
      {
        (submission ~kind ~layout ~tenant file) with
        Service.Protocol.args = specs;
        static = not no_static;
      }
    in
    match Service.Client.submit ~retries ~socket sub with
    | Ok (Service.Protocol.Result { job; outcome; queue_ms; run_ms }) ->
        if json then
          print_endline
            (Service.Protocol.encode_response
               (Service.Protocol.Result { job; outcome; queue_ms; run_ms }))
        else begin
          List.iter
            (fun e -> Format.printf "  %s@." e)
            outcome.Service.Protocol.errors;
          Format.printf
            "job %d: %s (%d races, cache %s, queued %.1f ms, ran %.1f ms)@."
            job
            (Service.Protocol.verdict_string outcome.Service.Protocol.verdict)
            outcome.Service.Protocol.races
            (if outcome.Service.Protocol.cache_hit then "hit" else "miss")
            queue_ms run_ms;
          if outcome.Service.Protocol.predicted > 0 then
            Format.printf "  %d schedule-sensitive predictions (%d confirmed)@."
              outcome.Service.Protocol.predicted
              outcome.Service.Protocol.confirmed;
          if outcome.Service.Protocol.static then
            Format.printf
              "  verdict from the static analysis alone: the kernel was \
               never executed@.";
          if outcome.Service.Protocol.repaired then
            Format.printf "  repaired (%d candidate%s tried): %s@."
              outcome.Service.Protocol.repair_tried
              (if outcome.Service.Protocol.repair_tried = 1 then "" else "s")
              outcome.Service.Protocol.fix
          else if kind = Service.Protocol.Repair then
            Format.printf "  %s@."
              (if outcome.Service.Protocol.verdict = Service.Protocol.Racy
               then
                 Printf.sprintf "unfixable: %d candidates tried, all rejected"
                   outcome.Service.Protocol.repair_tried
               else "already race-free: nothing to repair");
          if outcome.Service.Protocol.degraded then
            Format.printf
              "  warning: degraded transport — the verdict may be missing \
               evidence@."
        end;
        if outcome.Service.Protocol.verdict = Service.Protocol.Racy then 1
        else 0
    | Ok (Service.Protocol.Rejected { reason; retry_after_ms }) ->
        Format.eprintf
          "barracuda: job rejected (%s); retry in %d ms or raise --retries@."
          reason retry_after_ms;
        2
    | Ok (Service.Protocol.Failed { job; code; message }) ->
        Format.eprintf "barracuda: job %d failed (%s): %s@." job code message;
        2
    | Ok (Service.Protocol.Error message) ->
        Format.eprintf "barracuda: protocol error: %s@." message;
        2
    | Ok _ ->
        Format.eprintf "barracuda: unexpected reply from the daemon@.";
        2
    | Error message ->
        Format.eprintf "barracuda: cannot reach the daemon: %s@." message;
        1
  in
  let kind =
    Arg.(value & opt string "check"
           & info [ "kind" ] ~docv:"KIND"
               ~doc:"$(b,check) a PTX kernel, $(b,predict) over a recorded \
                     trace, or $(b,repair) a racy PTX kernel.")
  in
  let no_static =
    Arg.(value & flag
           & info [ "no-static" ]
               ~doc:"Execute the kernel even when the static race analysis \
                     proves it racy (no instant racy verdicts).")
  in
  let retries =
    Arg.(value & opt int 10
           & info [ "retries" ] ~docv:"N"
               ~doc:"Retries when the daemon's queue rejects the job.")
  in
  let json =
    Arg.(value & flag
           & info [ "json" ] ~doc:"Print the raw JSON result line.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Send a PTX kernel (or a recorded trace) to a running barracuda \
          daemon and wait for the verdict.")
    Term.(
      const run $ socket_term $ layout_term $ file_term $ args_term $ kind
      $ no_static $ retries $ json $ tenant_term)

let stream_cmd =
  let run socket file trace chunk flush_every retries tenant =
    guard @@ fun () ->
    if chunk < 1 then failwith "--chunk must be at least 1";
    (* The recorded layout travels in the stream file's header: the
       session replays under exactly the grid that produced it. *)
    let layout, cells = Gpu_runtime.Stream.read_file trace in
    let sub = submission ~kind:Service.Protocol.Check ~layout ~tenant file in
    let print_verdict ~label (v : Service.Protocol.stream_verdict) =
      Format.printf "%s: %d records, %s (%d race%s)@." label v.records
        (Service.Protocol.verdict_string v.verdict)
        v.races
        (if v.races = 1 then "" else "s");
      let i = v.integrity in
      if v.degraded then
        Format.printf
          "  warning: degraded transport — %d corrupt, %d lost, %d stale, \
           %d desynced@."
          i.corrupt i.gaps i.stale i.desync
    in
    match Service.Client.stream_open ~retries ~socket sub with
    | Error message ->
        Format.eprintf "barracuda: cannot open a session: %s@." message;
        1
    | Ok s -> (
        let total = String.length cells in
        let nchunks = max 1 ((total + chunk - 1) / chunk) in
        Format.printf
          "session %d open on %s: shipping %d bytes in %d chunk%s@."
          (Service.Client.session_sid s)
          socket total nchunks
          (if nchunks = 1 then "" else "s");
        let failed message =
          Service.Client.stream_abort s;
          Format.eprintf "barracuda: stream failed: %s@." message;
          None
        in
        let rec ship sent i =
          if sent >= total then Some ()
          else
            let len = min chunk (total - sent) in
            match Service.Client.stream_append s (String.sub cells sent len) with
            | Error message -> failed message
            | Ok _ -> (
                let sent = sent + len and i = i + 1 in
                if
                  flush_every > 0 && i mod flush_every = 0 && sent < total
                then
                  match Service.Client.stream_flush s with
                  | Error message -> failed message
                  | Ok v ->
                      print_verdict
                        ~label:
                          (Printf.sprintf "chunk %d/%d" i nchunks)
                        v;
                      ship sent i
                else ship sent i)
        in
        match ship 0 0 with
        | None -> 1
        | Some () -> (
            match Service.Client.stream_close s with
            | Error message ->
                Format.eprintf "barracuda: stream failed: %s@." message;
                1
            | Ok v ->
                print_verdict ~label:"final" v;
                if v.verdict = Service.Protocol.Racy then 1 else 0))
  in
  let trace =
    Arg.(
      required
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Recorded wire-record stream from $(b,barracuda check \
                --record).")
  in
  let chunk =
    Arg.(
      value & opt int 4096
      & info [ "chunk" ] ~docv:"BYTES"
          ~doc:"Chunk size; cells are split at arbitrary byte boundaries \
                and reassembled daemon-side.")
  in
  let flush_every =
    Arg.(
      value & opt int 8
      & info [ "flush-every" ] ~docv:"N"
          ~doc:"Checkpoint (and print the verdict so far) every $(docv) \
                chunks; 0 checkpoints only at close.")
  in
  let retries =
    Arg.(value & opt int 10
           & info [ "retries" ] ~docv:"N"
               ~doc:"Retries when every daemon session seat is occupied.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Ship a recorded wire-record stream to a running daemon in \
          chunks over a long-lived session, printing online verdicts at \
          each checkpoint.  The final verdict is bitwise-identical to a \
          one-shot check of the same kernel.")
    Term.(
      const run $ socket_term $ file_term $ trace $ chunk $ flush_every
      $ retries $ tenant_term)

(* The daemon and campaign dashboard, registered as both svc-status
   and fleet-status.  It exits 1 on any silent-wrong trial. *)
let status_cmd name =
  let run socket dir prometheus json shutdown =
    guard @@ fun () ->
    let unreachable message =
      Format.eprintf "barracuda: cannot reach the daemon: %s@." message;
      1
    in
    if shutdown then
      match Service.Client.shutdown ~socket with
      | Ok () ->
          Format.printf "daemon on %s is stopping.@." socket;
          0
      | Error message -> unreachable message
    else
      match dir with
      | Some dir -> (
          (* Campaign state straight from disk: no daemon needed (after a
             crash, say, before the resume). *)
          match Campaign.Journal.open_dir dir with
          | Error message ->
              Format.eprintf "barracuda: %s@." message;
              1
          | Ok j ->
              if json then print_endline (Campaign.Journal.report_json j)
              else Format.printf "%a" Campaign.Journal.pp j;
              if Campaign.Journal.clean j then 0 else 1)
      | None when prometheus -> (
          match Service.Client.metrics ~socket with
          | Ok text ->
              print_string text;
              0
          | Error message -> unreachable message)
      | None -> (
          match Service.Client.status ~socket with
          | Error message -> unreachable message
          | Ok s ->
              let module P = Service.Protocol in
              if json then print_endline (P.encode_response (P.Status_reply s))
              else begin
                Format.printf "daemon on %s: up %.1f s@." socket
                  (s.P.uptime_ms /. 1000.0);
                Format.printf "  workers   %d (%d busy)@." s.P.workers s.P.busy;
                Format.printf "  queue     %d/%d@." s.P.queue_depth
                  s.P.queue_capacity;
                let j = s.P.jobs and c = s.P.cache and i = s.P.transport in
                Format.printf
                  "  jobs      %d submitted, %d completed (%d racy / %d \
                   race-free), %d failed, %d rejected@."
                  j.submitted j.completed j.racy j.race_free j.failed
                  j.rejected;
                Format.printf
                  "  healing   %d worker crashes recovered, %d jobs \
                   quarantined@."
                  j.workers_restarted j.quarantined;
                Format.printf
                  "  cache     %d entries, %d hits / %d misses, %d evictions@."
                  c.entries c.hits c.misses c.evictions;
                Format.printf "  sessions  %d seats, %d open, %d opened total@."
                  s.P.sessions.seats s.P.sessions.occupied s.P.sessions.opened;
                Format.printf
                  "  transport %d corrupt, %d lost, %d stale, %d desynced@."
                  i.corrupt i.gaps i.stale i.desync;
                if s.P.tenants = [] then
                  Format.printf "  tenants   none seen yet@.";
                List.iter
                  (fun (tn : P.tenant_status) ->
                    Format.printf
                      "  tenant %-10s %d queued, %d in flight, %d submitted, \
                       %d done, %d rejected, p50 %.1f ms, p99 %.1f ms@."
                      tn.P.t_name tn.P.t_queued tn.P.t_inflight tn.P.t_submitted
                      tn.P.t_completed tn.P.t_rejected tn.P.t_p50_ms
                      tn.P.t_p99_ms)
                  s.P.tenants;
                match s.P.campaign with
                | None -> Format.printf "  campaign  not running@."
                | Some c ->
                    Format.printf
                      "  campaign  %d/%d trials (%d batches)%s, silent-wrong \
                       %d%s@."
                      c.P.ca_trials c.P.ca_total c.P.ca_batches
                      (if c.P.ca_paused then " [paused for paying work]"
                       else "")
                      c.P.ca_silent_wrong
                      (if c.P.ca_silent_wrong > 0 then
                         "  ** SILENT CORRUPTION **"
                       else "")
              end;
              match s.P.campaign with
              | Some c when c.P.ca_silent_wrong > 0 -> 1
              | _ -> 0)
  in
  let dir =
    Arg.(value & opt (some string) None
           & info [ "dir" ] ~docv:"DIR"
               ~doc:"Read campaign state from a journal directory instead \
                     of a live daemon.")
  in
  let prometheus =
    Arg.(value & flag
           & info [ "prometheus" ]
               ~doc:"Print the daemon's registry in Prometheus text format.")
  in
  let json =
    Arg.(value & flag
           & info [ "json" ]
               ~doc:"Raw JSON: the status line (daemon mode) or the \
                     deterministic campaign report (--dir mode).")
  in
  let shutdown =
    Arg.(value & flag
           & info [ "shutdown" ] ~doc:"Ask the daemon to shut down instead.")
  in
  Cmd.v
    (Cmd.info name
       ~doc:
         "Query (or shut down) a running barracuda daemon: service \
          counters, per-tenant queue depth, throughput, rejections and \
          latency percentiles, and background-campaign survival state \
          (silent-wrong must stay 0), or a campaign journal with \
          $(b,--dir).  Exits non-zero on any silent-wrong trial.")
    Term.(const run $ socket_term $ dir $ prometheus $ json $ shutdown)

let faults_cmd =
  let run seed quick trials json =
    guard @@ fun () ->
    let report =
      Campaign.run ~config:{ Campaign.seed; quick; trials } ()
    in
    Format.printf "%a" Campaign.pp report;
    Option.iter
      (fun path ->
        write_json ~what:"campaign report" path (Campaign.to_json report))
      json;
    if Campaign.ok report then 0 else 1
  in
  let seed =
    Arg.(value & opt int Campaign.default_config.Campaign.seed
           & info [ "seed" ] ~docv:"N"
               ~doc:"Campaign seed; a fixed seed makes the whole campaign \
                     (and its JSON report) bitwise reproducible.")
  in
  let quick =
    Arg.(value & flag
           & info [ "quick" ]
               ~doc:"CI mode: a small case subset and one trial per fault \
                     class.")
  in
  let trials =
    Arg.(value & opt int Campaign.default_config.Campaign.trials
           & info [ "trials" ] ~docv:"N"
               ~doc:"Transport trials per (case, fault class).")
  in
  let json =
    Arg.(value & opt (some string) None
           & info [ "json" ] ~docv:"FILE"
               ~doc:"Also write the campaign report as one JSON line to \
                     $(docv) ($(b,-) for stdout).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a seeded fault-injection campaign: transport corruption \
          (bit flips, drops, duplicates, reorder-delays), gpuFI-style \
          architectural flips in the interpreter, and worker crashes \
          against the service scheduler.  Exits non-zero on any silent \
          corruption or unhealed service fault.")
    Term.(const run $ seed $ quick $ trials $ json)

(* ------------------------- fleet mode ---------------------------- *)

let fleet_cmd =
  let run dir seed cases trials batch resume max_trials json =
    guard @@ fun () ->
    if batch < 1 then failwith "--batch must be at least 1";
    let exists = Sys.file_exists (Campaign.Journal.path ~dir) in
    if exists && not resume then
      failwith
        (Printf.sprintf
           "%s already holds a campaign journal; pass --resume to continue \
            it (or point --dir at a fresh directory)"
           dir);
    if resume && not exists then
      failwith (Printf.sprintf "no campaign journal to resume in %s" dir);
    let fresh = { Campaign.Journal.seed; cases; trials } in
    let j =
      match Campaign.Journal.open_dir ~fresh dir with
      | Ok j -> j
      | Error message -> failwith message
    in
    (* Foreground runner: the in-daemon campaign's batch step,
       checkpointing after every batch so a kill at any point resumes
       without losing or double-counting trials. *)
    let baselines = Hashtbl.create 8 in
    let budget = match max_trials with None -> max_int | Some m -> max 0 m in
    let rec drive done_now =
      if done_now < budget then
        let n = min batch (budget - done_now) in
        let ran = Campaign.Journal.advance ~baselines ~dir j ~n in
        if ran > 0 then drive (done_now + ran)
    in
    drive 0;
    Format.printf "%a" Campaign.Journal.pp j;
    Option.iter
      (fun path ->
        write_json ~what:"fleet campaign report" path
          (Campaign.Journal.report_json j))
      json;
    if not (Campaign.Journal.clean j) then 1
    else if Campaign.Journal.complete j || max_trials <> None then 0
    else 1
  in
  let dir =
    Arg.(required & pos 0 (some string) None
           & info [] ~docv:"DIR" ~doc:"Campaign journal directory.")
  in
  let seed =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.seed
           & info [ "seed" ] ~docv:"N"
               ~doc:"Campaign seed (ignored with --resume: the journal's \
                     seed wins).")
  in
  let cases =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.cases
           & info [ "cases" ] ~docv:"N" ~doc:"Bug-suite cases swept.")
  in
  let trials =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.trials
           & info [ "trials" ] ~docv:"N"
               ~doc:"Trials per (case, fault class).")
  in
  let batch =
    Arg.(value & opt int Campaign.Daemon.default_config.Campaign.Daemon.batch
           & info [ "batch" ] ~docv:"N" ~doc:"Trials per checkpoint.")
  in
  let resume =
    Arg.(value & flag
           & info [ "resume" ]
               ~doc:"Continue the journal already in DIR from its cursor.")
  in
  let max_trials =
    Arg.(value & opt (some int) None
           & info [ "max-trials" ] ~docv:"N"
               ~doc:"Stop after $(docv) trials this run (the journal keeps \
                     the rest for a later --resume).")
  in
  let json =
    Arg.(value & opt (some string) None
           & info [ "json" ] ~docv:"FILE"
               ~doc:"Also write the deterministic campaign report as one \
                     JSON line to $(docv) ($(b,-) for stdout).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run (or --resume) a checkpointed fault campaign in the \
          foreground: the same seeded trial space the in-daemon \
          background campaign sweeps, journaled to disk after every \
          batch so an interrupted campaign resumes exactly where it \
          stopped and its merged report is bitwise identical to an \
          uninterrupted run.")
    Term.(const run $ dir $ seed $ cases $ trials $ batch $ resume
          $ max_trials $ json)

let () =
  let doc = "binary-level data race detection for (simulated) CUDA kernels" in
  let info = Cmd.info "barracuda" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; profile_cmd; instrument_cmd; analyze_cmd; repair_cmd;
            suite_cmd;
            litmus_cmd; table1_cmd; sweep_cmd; replay_cmd; predict_cmd; faults_cmd;
            serve_cmd; submit_cmd; stream_cmd; status_cmd "svc-status";
            fleet_cmd; status_cmd "fleet-status";
          ]))
