(** Single-trial campaign machinery, shared by the foreground sweep
    ({!Campaign.run}) and the background {!Daemon}.

    A trial is a pure function of [(campaign seed, case id, fault
    class, trial index)]: {!trial_seed} derives the fault-plan seed
    from that tuple alone, so any subset of the trial space can be run
    in any order — or split across interrupted resumed runs — and the
    aggregated counts come out identical. *)

type cell = {
  trials : int;
  injected : int;  (** faults actually injected across the trials *)
  masked : int;  (** verdict unchanged, nothing flagged *)
  absorbed : int;  (** verdict unchanged, [degraded] flagged *)
  degraded_wrong : int;  (** verdict changed but flagged *)
  silent_wrong : int;  (** verdict changed, no flag — must be 0 *)
  crashed : int;  (** must be 0 *)
}

val empty_cell : cell

val trial_seed : seed:int -> case_id:int -> cls:int -> trial:int -> int
(** Deterministic per-trial fault-plan seed. *)

val transport_classes : (string * (int -> Fault.Plan.spec)) list
(** The four transport fault classes (bit_flip / drop / duplicate /
    delay), each mapping a trial seed to a plan spec at the campaign's
    standard 5% rate.  The list index is the class id [cls] fed to
    {!trial_seed}. *)

val class_count : int
val class_names : string list

val pipeline_verdict : ?fault:Fault.Plan.t -> Bugsuite.Case.t -> bool * bool
(** Run the case as [barracuda check] does ([Session.run_stream],
    uninstrumented, serial sink carrying [fault]); [(has_race,
    degraded)]. *)

val transport_trial :
  baseline_race:bool -> plan:Fault.Plan.t -> Bugsuite.Case.t -> cell -> cell
(** Run one faulted trial and fold its classification into [cell]. *)
