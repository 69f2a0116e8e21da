(** Race diagnosis for repair: one pass of the unchanged detection
    stack (the serial [check] run + static analysis + predictive schedule
    exploration) over the input kernel, yielding the racy static
    instruction pairs, the barrier-divergence baseline and the dynamic
    execution census the cost model weighs candidate fixes by. *)

type t = {
  racy : bool;  (** any race: observed, predicted or provably static *)
  observed_racy : bool;
  predicted_racy : bool;
  static_racy : bool;
  bardiv : bool;  (** the unrepaired kernel already diverges at a barrier *)
  pairs : (int * int) list;
      (** racy (a_insn, b_insn) static pairs, a <= b, deduped; indices
          into the {e original} kernel body *)
  spaces : Ptx.Ast.space list;  (** memory spaces involved in any race *)
  counts : int array;
      (** per original instruction: warp-level dynamic executions *)
}

val diagnose :
  ?max_steps:int ->
  layout:Vclock.Layout.t ->
  setup:(Simt.Machine.t -> int64 array) ->
  Ptx.Ast.kernel ->
  t

val bardiv_reported : Barracuda.Report.t -> bool
(** Whether the report carries a barrier-divergence error. *)
