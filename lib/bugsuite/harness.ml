type outcome = {
  case : Case.t;
  reported_race : bool;
  reported_bardiv : bool;
  correct : bool;
}

type score = { outcomes : outcome list; correct : int; total : int }

let judge (case : Case.t) ~reported_race ~reported_bardiv ~check_bardiv =
  let race_ok =
    match case.Case.verdict with
    | Case.Racy -> reported_race
    | Case.Race_free -> not reported_race
  in
  let bardiv_ok =
    (not check_bardiv) || Bool.equal reported_bardiv case.Case.expect_bardiv
  in
  {
    case;
    reported_race;
    reported_bardiv;
    correct = race_ok && bardiv_ok;
  }

let score_of outcomes =
  {
    outcomes;
    correct = List.length (List.filter (fun (o : outcome) -> o.correct) outcomes);
    total = List.length outcomes;
  }

let machine_of (case : Case.t) =
  Simt.Machine.create ~layout:case.Case.layout ()

let run_barracuda ?max_steps cases =
  score_of
    (List.map
       (fun (case : Case.t) ->
         let m = machine_of case in
         let args = case.Case.setup m in
         let report =
           (Gpu_runtime.Session.run_stream ?max_steps ~machine:m
              case.Case.kernel args)
             .Gpu_runtime.Session.sr_report
         in
         judge case
           ~reported_race:(Barracuda.Report.has_race report)
           ~reported_bardiv:(Repair.Localize.bardiv_reported report)
           ~check_bardiv:true)
       cases)

let run_racecheck ?max_steps cases =
  score_of
    (List.map
       (fun (case : Case.t) ->
         if Barracuda.Racecheck.would_hang case.Case.kernel then
           (* the real tool hangs on spinlock tests: an incorrect
              outcome with no verdict at all *)
           {
             case;
             reported_race = false;
             reported_bardiv = false;
             correct = false;
           }
         else
           let m = machine_of case in
           let args = case.Case.setup m in
           let rc, _ =
             Barracuda.Racecheck.run ?max_steps ~machine:m case.Case.kernel
               args
           in
           let report = Barracuda.Racecheck.report rc in
           (* Racecheck does not detect barrier divergence, so it is
              judged on the race verdict alone — and still judged wrong
              when the ground truth expects a divergence report. *)
           judge case
             ~reported_race:(Barracuda.Report.has_race report)
             ~reported_bardiv:false
             ~check_bardiv:case.Case.expect_bardiv)
       cases)

let run_reference ?max_steps cases =
  score_of
    (List.map
       (fun (case : Case.t) ->
         let m = machine_of case in
         let args = case.Case.setup m in
         let ops, result =
           Gtrace.Infer.run ?max_steps ~layout:case.Case.layout m
             case.Case.kernel args
         in
         let d = Barracuda.Reference.create ~layout:case.Case.layout () in
         Barracuda.Reference.run d ops;
         let report = Barracuda.Reference.report d in
         judge case
           ~reported_race:(Barracuda.Report.has_race report)
           ~reported_bardiv:result.Simt.Machine.barrier_divergence
           ~check_bardiv:true)
       cases)

let run_predict ?max_steps ?config cases =
  score_of
    (List.map
       (fun (case : Case.t) ->
         let m = machine_of case in
         let args = case.Case.setup m in
         let ops, result =
           Gtrace.Infer.run ?max_steps ~layout:case.Case.layout m
             case.Case.kernel args
         in
         let a = Predict.Analysis.run ?config ~layout:case.Case.layout ops in
         judge case
           ~reported_race:(Predict.Analysis.has_race a)
           ~reported_bardiv:result.Simt.Machine.barrier_divergence
           ~check_bardiv:false)
       cases)

(* ---- automated repair scoreboard ----------------------------------- *)

type repair_outcome = { case : Case.t; result : Repair.Engine.result }

type repair_score = {
  repair_outcomes : repair_outcome list;
  fixed : int;
  unfixable : int;
  clean : int;
  fix_rejected : int;  (** candidates rejected by validation, summed *)
}

let family (case : Case.t) =
  match String.index_opt case.Case.name '_' with
  | Some i -> String.sub case.Case.name 0 i
  | None -> case.Case.name

let repair_score_of repair_outcomes =
  let count p =
    List.length (List.filter (fun (o : repair_outcome) -> p o) repair_outcomes)
  in
  {
    repair_outcomes;
    fixed =
      count (fun o ->
          match o.result.Repair.Engine.verdict with
          | Repair.Engine.Fixed _ -> true
          | _ -> false);
    unfixable =
      count (fun o -> o.result.Repair.Engine.verdict = Repair.Engine.Unfixable);
    clean =
      count (fun o ->
          o.result.Repair.Engine.verdict = Repair.Engine.Already_clean);
    fix_rejected =
      List.fold_left
        (fun acc (o : repair_outcome) ->
          acc + List.length o.result.Repair.Engine.rejected)
        0 repair_outcomes;
  }

let run_repair ?max_steps ?config cases =
  let config =
    match (config, max_steps) with
    | Some c, _ -> c
    | None, Some max_steps ->
        { Repair.Engine.default_config with Repair.Engine.max_steps }
    | None, None -> Repair.Engine.default_config
  in
  repair_score_of
    (List.map
       (fun (case : Case.t) ->
         let result =
           Repair.Engine.repair ~config ~layout:case.Case.layout
             ~setup:case.Case.setup case.Case.kernel
         in
         { case; result })
       cases)

let repair_families score =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (o : repair_outcome) ->
      let f = family o.case in
      if not (Hashtbl.mem tbl f) then begin
        Hashtbl.add tbl f (ref []);
        order := f :: !order
      end;
      let cell = Hashtbl.find tbl f in
      cell := o :: !cell)
    score.repair_outcomes;
  List.rev_map
    (fun f -> (f, repair_score_of (List.rev !(Hashtbl.find tbl f))))
    !order

let pp_repair_score ppf s =
  Format.fprintf ppf "fixed %d, already-clean %d, unfixable %d (%d candidate%s rejected)"
    s.fixed s.clean s.unfixable s.fix_rejected
    (if s.fix_rejected = 1 then "" else "s");
  List.iter
    (fun (o : repair_outcome) ->
      match o.result.Repair.Engine.verdict with
      | Repair.Engine.Fixed f ->
          Format.fprintf ppf "@\n  FIXED      %-34s %s" o.case.Case.name
            f.Repair.Engine.description
      | Repair.Engine.Unfixable ->
          Format.fprintf ppf "@\n  UNFIXABLE  %-34s tried %d of %d candidates"
            o.case.Case.name o.result.Repair.Engine.candidates_tried
            o.result.Repair.Engine.candidates_total
      | Repair.Engine.Already_clean -> ())
    s.repair_outcomes

let pp_score ppf s =
  Format.fprintf ppf "%d/%d correct" s.correct s.total;
  List.iter
    (fun (o : outcome) ->
      if not o.correct then
        Format.fprintf ppf "@\n  WRONG %-3d %-34s truth=%a reported_race=%b%s"
          o.case.Case.id o.case.Case.name Case.pp_verdict o.case.Case.verdict
          o.reported_race
          (if o.case.Case.expect_bardiv then
             Printf.sprintf " bardiv=%b" o.reported_bardiv
           else ""))
    s.outcomes
