type config = {
  max_steps : int;
  deadline_ms : int;
  job_shards : int;
      (* detector domains per check job; 1 = the serial sink *)
}

let default_config = { max_steps = 2_000_000; deadline_ms = 0; job_shards = 1 }

(* Pretty-printed errors returned per job: only these are formatted. *)
let max_report_strings = 20
let first_reports l = List.filteri (fun i _ -> i < max_report_strings) l

exception Bad_args of string

let default_layout =
  Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2

let resolve_args machine kernel specs =
  let nparams = List.length kernel.Ptx.Ast.params in
  let parse spec =
    let bad () =
      raise (Bad_args (Printf.sprintf "bad argument spec %S" spec))
    in
    match String.split_on_char ':' spec with
    | [ "alloc"; n ] -> (
        match int_of_string_opt n with
        | Some bytes when bytes >= 0 ->
            Int64.of_int (Simt.Machine.alloc_global machine bytes)
        | _ -> bad ())
    | [ "int"; v ] | [ v ] -> (
        match Int64.of_string_opt v with Some x -> x | None -> bad ())
    | _ -> bad ()
  in
  let given = List.map parse specs in
  let missing = nparams - List.length given in
  if missing < 0 then
    raise
      (Bad_args
         (Printf.sprintf "kernel %s takes %d arguments, got %d"
            kernel.Ptx.Ast.kname nparams (List.length given)));
  let fill =
    List.init missing (fun _ ->
        Int64.of_int (Simt.Machine.alloc_global machine 4096))
  in
  Array.of_list (given @ fill)

(* A layout a client sends is bounded before anything is sized by it. *)
let check_thread_cap ~blocks ~tpb =
  if not (Vclock.Layout.within_max_threads ~threads_per_block:tpb ~blocks) then
    raise
      (Bad_args
         (Printf.sprintf
            "bad layout: %d blocks of %d threads exceed the cap of %d threads"
            blocks tpb Vclock.Layout.max_threads))

(* A submitted layout is the client's to get right: one no detector
   can check is a bad request before anything is built or run. *)
let layout_of (s : Protocol.submit) =
  match s.Protocol.layout with
  | None -> default_layout
  | Some (blocks, tpb, warp) ->
      if min blocks (min tpb warp) < 1 || warp > Barracuda.Wire.max_lanes then
        raise
          (Bad_args
             (Printf.sprintf
                "bad layout: %d blocks of %d threads, warp %d (each at least \
                 1, a warp at most the %d lanes of a wire record)"
                blocks tpb warp Barracuda.Wire.max_lanes));
      check_thread_cap ~blocks ~tpb;
      Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks

let m_static_fast =
  Telemetry.Registry.counter
    ~help:"Check jobs answered by the static analysis without execution"
    Telemetry.Registry.default "barracuda_service_static_fast_total"

let outcome_of_report ?(static = false) ~cache_hit ~detect_ms report =
  {
    Protocol.default_outcome with
    Protocol.verdict =
      (if Barracuda.Report.has_race report then Protocol.Racy
       else Protocol.Race_free);
    races = Barracuda.Report.race_count report;
    errors =
      List.map Barracuda.Report.error_to_string
        (first_reports (Barracuda.Report.errors report));
    cache_hit;
    degraded = Barracuda.Report.degraded report;
    static;
    detect_ms;
  }

let entry_for ~cache (s : Protocol.submit) =
  Cache.find_or_build cache (Cache.key s.Protocol.payload) ~build:(fun () ->
      let kernel = Ptx.Parser.kernel_of_string s.Protocol.payload in
      { Cache.kernel; plan = Static.Plan.of_kernel kernel })

(* A detector-shaped report for the racy pairs the launch layout can
   realize.  Representative threads: thread 0 and the first thread of
   the second warp (same block for shared, anywhere for global).
   Global addresses are relative to the base parameter when one is
   named. *)
let static_report analysis ~layout =
  match Static.Analysis.realizable_pairs analysis ~layout with
  | [] -> None
  | live ->
      let r = Barracuda.Report.create ~layout () in
      List.iter
        (fun (p : Static.Analysis.racy_pair) ->
          let addr = Int64.to_int p.Static.Analysis.addr in
          let shared = p.Static.Analysis.pair_space = Ptx.Ast.Shared in
          let loc =
            if shared then Gtrace.Loc.shared ~block:0 addr
            else Gtrace.Loc.global addr
          in
          let cur_tid =
            if shared then layout.Vclock.Layout.warp_size
            else Vclock.Layout.tid_of_warp_lane layout ~warp:1 ~lane:0
          in
          let kind w =
            if w then Barracuda.Report.Write else Barracuda.Report.Read
          in
          Barracuda.Report.add_race r ~prev_insn:p.Static.Analysis.a_insn
            ~cur_insn:p.Static.Analysis.b_insn ~loc ~prev_tid:0
            ~prev_kind:(kind p.Static.Analysis.a_write) ~cur_tid
            ~cur_kind:(kind p.Static.Analysis.b_write) ~same_instruction:false)
        live;
      Some r

(* The one static answer: a kernel the static analysis proves racy
   (for this launch layout) is answered from its cache entry without
   ever executing it.  Race-free and unknown kernels still run — the
   analysis only certifies [Racy] on its own. *)
let static_result ~cache_hit ~job ~layout entry (s : Protocol.submit) =
  if not s.Protocol.static then None
  else
    match
      static_report (Static.Plan.analysis entry.Cache.plan) ~layout
    with
    | None -> None
    | Some report ->
        Telemetry.Metric.counter_incr m_static_fast;
        Some
          (Protocol.Result
             {
               job;
               outcome =
                 outcome_of_report ~static:true ~cache_hit ~detect_ms:0.0
                   report;
               queue_ms = 0.0;
               run_ms = 0.0;
             })

(* The kernel runs exactly as [barracuda check] runs it: the plain
   kernel through [run_stream], so a reply carries check's report. *)
let run_check ~config ~cache ~job (s : Protocol.submit) =
  let layout = layout_of s in
  let entry, cache_hit = entry_for ~cache s in
  match static_result ~cache_hit ~job ~layout entry s with
  | Some result -> result
  | None ->
  let machine = Simt.Machine.create ~layout () in
  let args = resolve_args machine entry.Cache.kernel s.Protocol.args in
  let deadline_ns =
    if config.deadline_ms <= 0 then None
    else
      Some
        (Int64.add (Telemetry.Clock.now_ns ())
           (Int64.mul (Int64.of_int config.deadline_ms) 1_000_000L))
  in
  let plan = entry.Cache.plan in
  let result =
    Gpu_runtime.Session.run_stream ~plan
      ?sink:(Shard.Stream.sink_for ~plan ~layout ~shards:config.job_shards
               entry.Cache.kernel)
      ~max_steps:config.max_steps ?deadline_ns ~machine entry.Cache.kernel
      args
  in
  Gpu_runtime.Session.check_budget result;
  match result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status with
  | Simt.Machine.Deadline n ->
      Protocol.Failed
        {
          job;
          code = "deadline";
          message =
            Printf.sprintf
              "kernel stopped at the %d ms wall-clock deadline after %d steps"
              config.deadline_ms n;
        }
  | Simt.Machine.Completed | Simt.Machine.Max_steps _ ->
      Protocol.Result
        {
          job;
          outcome =
            outcome_of_report ~cache_hit
              ~detect_ms:
                (Int64.to_float result.Gpu_runtime.Session.sr_detect_ns /. 1e6)
              result.Gpu_runtime.Session.sr_report;
          queue_ms = 0.0;
          run_ms = 0.0;
        }

let run_predict ~job (s : Protocol.submit) =
  let layout, ops = Gtrace.Serialize.of_string s.Protocol.payload in
  check_thread_cap ~blocks:layout.Vclock.Layout.blocks
    ~tpb:layout.Vclock.Layout.threads_per_block;
  let a = Predict.Analysis.run ~layout ops in
  let errors =
    List.map
      (fun (p : Predict.Analysis.prediction) ->
        Printf.sprintf "%s race predicted at %s"
          (Predict.Analysis.status_string p.Predict.Analysis.status)
          (Gtrace.Loc.to_string p.Predict.Analysis.loc))
      (first_reports
         (List.filter
            (fun (p : Predict.Analysis.prediction) ->
              p.Predict.Analysis.status <> Predict.Analysis.Observed)
            a.Predict.Analysis.predictions))
  in
  Protocol.Result
    {
      job;
      outcome =
        {
          Protocol.default_outcome with
          Protocol.verdict =
            (if Predict.Analysis.has_race a then Protocol.Racy
             else Protocol.Race_free);
          races = a.Predict.Analysis.observed_race_count;
          errors;
          predicted = Predict.Analysis.predicted_count a;
          confirmed = Predict.Analysis.confirmed_count a;
        };
      queue_ms = 0.0;
      run_ms = 0.0;
    }

(* A repair job: diagnose, search the candidate-fix space, validate
   through the unchanged detector.  The parse/analysis artifacts
   come from the same source-digest cache as check jobs; the verdict
   describes the post-repair state ([Race_free] + [repaired] = fixed,
   [Racy] = unfixable) so verdict parity with the one-shot
   [barracuda repair] command holds by construction. *)
let run_repair ~config ~cache ~job (s : Protocol.submit) =
  let layout = layout_of s in
  let entry, cache_hit = entry_for ~cache s in
  let kernel = entry.Cache.kernel in
  let setup machine = resolve_args machine kernel s.Protocol.args in
  let rconfig =
    {
      Repair.Engine.default_config with
      Repair.Engine.max_steps = config.max_steps;
      shards = max 2 config.job_shards;
    }
  in
  let t0 = Telemetry.Clock.now_ns () in
  let r = Repair.Engine.repair ~config:rconfig ~layout ~setup kernel in
  let detect_ms =
    Int64.to_float (Int64.sub (Telemetry.Clock.now_ns ()) t0) /. 1e6
  in
  let d = r.Repair.Engine.diagnosis in
  let pair_errors =
    List.map
      (fun (a, b) -> Printf.sprintf "racy pair: insn %d vs insn %d" a b)
      (first_reports d.Repair.Localize.pairs)
  in
  let verdict, repaired, fix, errors =
    match r.Repair.Engine.verdict with
    | Repair.Engine.Already_clean -> (Protocol.Race_free, false, "", [])
    | Repair.Engine.Fixed f ->
        ( Protocol.Race_free,
          true,
          f.Repair.Engine.description,
          pair_errors )
    | Repair.Engine.Unfixable -> (Protocol.Racy, false, "", pair_errors)
  in
  Protocol.Result
    {
      job;
      outcome =
        {
          Protocol.default_outcome with
          Protocol.verdict;
          races = List.length d.Repair.Localize.pairs;
          errors;
          cache_hit;
          repaired;
          fix;
          repair_tried = r.Repair.Engine.candidates_tried;
          detect_ms;
        };
      queue_ms = 0.0;
      run_ms = 0.0;
    }

(* Open a streaming session for a daemon stream job.  Artifacts come
   from the same source-digest cache as batch checks, and [job_shards]
   selects the backend exactly as [run_check] does, so a streamed
   trace's verdict is bitwise the one a batch submission of the same
   records would produce. *)
let stream_open ?(config = default_config) ~cache (s : Protocol.submit) =
  let layout = layout_of s in
  let entry, _ = entry_for ~cache s in
  let plan = entry.Cache.plan in
  Gpu_runtime.Session.open_stream ~plan
    ?sink:(Shard.Stream.sink_for ~plan ~layout ~shards:config.job_shards
             entry.Cache.kernel)
    ~layout entry.Cache.kernel

let error_response ~job exn =
  let failed code message = Protocol.Failed { job; code; message } in
  match exn with
  | Ptx.Parser.Error { line; message } ->
      failed "parse_error" (Printf.sprintf "PTX line %d: %s" line message)
  | Gtrace.Serialize.Parse_error { line; message } ->
      failed "parse_error" (Printf.sprintf "trace line %d: %s" line message)
  | Gpu_runtime.Stream.Framing message ->
      failed "bad_request" (Printf.sprintf "stream framing: %s" message)
  | Gpu_runtime.Session.Stopped n ->
      failed "timeout" (Gpu_runtime.Session.stopped_message n)
  | Shard.Engine.Shard_crashed i ->
      (* never degrade to a partial merge: a dead shard domain means
         the verdict is unrecoverable for this attempt *)
      failed "shard_crashed" (Printf.sprintf "shard %d consumer domain died" i)
  | Bad_args message | Failure message -> failed "bad_request" message
  | Invalid_argument message -> failed "exec_error" message
  | Stack_overflow -> failed "exec_error" "stack overflow"
  | exn -> failed "exec_error" (Printexc.to_string exn)

let run ?(config = default_config) ~cache ~job (s : Protocol.submit) =
  try
    match s.Protocol.kind with
    | Protocol.Check -> run_check ~config ~cache ~job s
    | Protocol.Predict -> run_predict ~job s
    | Protocol.Repair -> run_repair ~config ~cache ~job s
  with exn -> error_response ~job exn
