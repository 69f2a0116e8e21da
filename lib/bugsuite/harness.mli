(** Scoring harness for the bug suite (§6.1).

    Runs each case under a detector and checks the verdict: a case is
    {e correct} when the detector reports a race iff the ground truth is
    racy, and (for BARRACUDA) flags barrier divergence exactly when the
    case expects it.  The paper's result is BARRACUDA 66/66 and
    CUDA-Racecheck 19/66. *)

type outcome = {
  case : Case.t;
  reported_race : bool;
  reported_bardiv : bool;
  correct : bool;
}

type score = {
  outcomes : outcome list;
  correct : int;
  total : int;
}

val run_barracuda : ?max_steps:int -> Case.t list -> score
(** The deployed detector: each case runs uninstrumented through
    [Gpu_runtime.Session.run_stream], as [barracuda check] runs it. *)

val run_racecheck : ?max_steps:int -> Case.t list -> score

val run_reference : ?max_steps:int -> Case.t list -> score
(** The literal-semantics detector, fed through the trace layer. *)

val run_predict :
  ?max_steps:int -> ?config:Predict.Analysis.config -> Case.t list -> score
(** The offline predictive analysis over the inferred trace: a case
    counts as racy when the recorded order races {e or} any
    schedule-sensitive pair is predicted.  Barrier divergence is not
    judged (the analysis targets data races). *)

val pp_score : Format.formatter -> score -> unit

(** {1 Automated repair scoreboard}

    Runs the {!Repair.Engine} over each case and tallies verdicts:
    racy cases should come back [Fixed], race-free cases
    [Already_clean].  [fix_rejected] counts candidate patches the
    validation gauntlet killed before a fix was accepted. *)

type repair_outcome = { case : Case.t; result : Repair.Engine.result }

type repair_score = {
  repair_outcomes : repair_outcome list;
  fixed : int;
  unfixable : int;
  clean : int;
  fix_rejected : int;
}

val run_repair :
  ?max_steps:int -> ?config:Repair.Engine.config -> Case.t list -> repair_score
(** [config] wins over [max_steps] when both are given. *)

val family : Case.t -> string
(** Case family: the leading [_]-separated token of the case name. *)

val repair_families : repair_score -> (string * repair_score) list
(** Per-family breakdown, in first-appearance order. *)

val pp_repair_score : Format.formatter -> repair_score -> unit
