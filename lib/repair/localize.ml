(* Diagnosis: run the unchanged detection stack once over the input
   kernel and collect everything repair needs — the race verdict, the
   racy static instruction pairs (from the detector's per-race insn ids
   and the static analyzer's provably-racy pairs), barrier-divergence
   status, and a per-instruction dynamic execution census used by the
   cost model.  The kernel is never modified here. *)

module Report = Barracuda.Report

type t = {
  racy : bool;  (** any race: observed, predicted or provably static *)
  observed_racy : bool;
  predicted_racy : bool;
  static_racy : bool;
  bardiv : bool;  (** the unrepaired kernel already diverges at a barrier *)
  pairs : (int * int) list;
      (** racy (a_insn, b_insn) static pairs, a <= b, deduped; ids are
          original-kernel indices (diagnosis runs the uninstrumented
          kernel) *)
  spaces : Ptx.Ast.space list;  (** memory spaces involved in any race *)
  counts : int array;
      (** per original instruction: warp-level dynamic executions *)
}

let bardiv_reported report =
  List.exists
    (function
      | Report.Barrier_divergence _ -> true
      | Report.Race _ -> false)
    (Report.errors report)

let norm_pair a b = if a <= b then (a, b) else (b, a)

let add_space spaces s = if List.mem s spaces then spaces else s :: spaces

let diagnose ?(max_steps = 400_000) ~layout
    ~(setup : Simt.Machine.t -> int64 array) kernel =
  let nbody = Array.length kernel.Ptx.Ast.body in
  let counts = Array.make (max nbody 1) 0 in
  (* One launch feeds the detector, the execution census and the
     abstract trace that schedule exploration replays. *)
  let plan = Static.Plan.of_kernel kernel in
  let infer = Gtrace.Infer.create ~layout (Static.Plan.roles plan) in
  let ops = ref [] in
  let tap ev =
    (match ev with
    | Simt.Event.Access a ->
        let i = a.Simt.Event.insn in
        if i >= 0 && i < nbody then counts.(i) <- counts.(i) + 1
    | _ -> ());
    ops := List.rev_append (Gtrace.Infer.feed infer ev) !ops
  in
  let machine = Simt.Machine.create ~layout () in
  let args = setup machine in
  let result =
    Gpu_runtime.Session.run_stream ~max_steps ~tap ~machine kernel args
  in
  Gpu_runtime.Session.check_budget result;
  let report = result.Gpu_runtime.Session.sr_report in
  let observed_racy = Report.has_race report in
  let bardiv =
    result.Gpu_runtime.Session.sr_machine_result.Simt.Machine
      .barrier_divergence
    || bardiv_reported report
  in
  let pairs = ref [] and spaces = ref [] in
  List.iter
    (function
      | Report.Race r ->
          spaces := add_space !spaces r.Report.loc.Gtrace.Loc.space;
          if r.Report.prev_insn >= 0 && r.Report.cur_insn >= 0 then
            pairs := norm_pair r.Report.prev_insn r.Report.cur_insn :: !pairs
      | Report.Barrier_divergence _ -> ())
    (Report.errors report);
  (* The static analyzer names pairs the observed schedule may have
     missed (and pairs on kernels whose recorded order is silent). *)
  let analysis = Static.Plan.analysis plan in
  let static_pairs = Static.Analysis.realizable_pairs analysis ~layout in
  List.iter
    (fun (p : Static.Analysis.racy_pair) ->
      spaces := add_space !spaces p.Static.Analysis.pair_space;
      pairs :=
        norm_pair p.Static.Analysis.a_insn p.Static.Analysis.b_insn :: !pairs)
    static_pairs;
  let static_racy = static_pairs <> [] in
  (* Schedule exploration: races the recorded order happened to hide.
     Predictions carry locations, not static ids — they gate the
     verdict and steer the space-directed fallback candidates. *)
  let analysis_p = Predict.Analysis.run ~layout (List.rev !ops) in
  let predicted_racy = Predict.Analysis.has_race analysis_p in
  if predicted_racy then
    List.iter
      (fun (p : Predict.Analysis.prediction) ->
        match p.Predict.Analysis.status with
        | Predict.Analysis.Observed -> ()
        | _ ->
            spaces :=
              add_space !spaces p.Predict.Analysis.loc.Gtrace.Loc.space)
      analysis_p.Predict.Analysis.predictions;
  {
    racy = observed_racy || predicted_racy || static_racy;
    observed_racy;
    predicted_racy;
    static_racy;
    bardiv;
    pairs = List.sort_uniq compare !pairs;
    spaces = !spaces;
    counts;
  }
