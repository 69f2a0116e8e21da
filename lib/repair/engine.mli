(** The automated race-repair engine: diagnose -> propose -> validate.

    Consumes race reports from the unchanged detection stack
    ({!Localize}), searches the candidate-fix space ({!Candidates}) in
    ascending cost order, and accepts the first candidate that survives
    the full validation gauntlet ({!Validate}) — so the minimal fix
    wins by construction.  Deterministic for a fixed seed.

    Telemetry: the ["repair"] span and the [barracuda_repair_*]
    counters (runs, fixed, clean, unfixable, candidates tried /
    rejected). *)

type config = {
  max_candidates : int;  (** validation budget per kernel *)
  max_steps : int;
  shards : int;  (** shard count for the parity check *)
  seed : int;
}

val default_config : config

type fix = {
  description : string;
  kind : Candidates.kind;
  cost : float;
  sites : int list;
  kernel : Ptx.Ast.kernel;  (** the accepted patch, re-parsed from [ptx] *)
  ptx : string;  (** the printed artifact every validation stage ran *)
}

type verdict =
  | Already_clean  (** detector, predict and static analysis all agree *)
  | Fixed of fix
  | Unfixable  (** racy, but no candidate survived validation *)

type result = {
  verdict : verdict;
  diagnosis : Localize.t;
  candidates_total : int;  (** generated (post-dedup, pre-budget) *)
  candidates_tried : int;  (** entered validation, including the winner *)
  rejected : (string * string) list;  (** (candidate description, reason) *)
}

val repair :
  ?config:config ->
  layout:Vclock.Layout.t ->
  setup:(Simt.Machine.t -> int64 array) ->
  Ptx.Ast.kernel ->
  result
(** @raise Gpu_runtime.Session.Stopped when [max_steps] stops the
    kernel's diagnosis run. *)

val verdict_name : verdict -> string

val patch_of : original:Ptx.Ast.kernel -> fix -> string
(** The accepted fix as a line diff against the original's printing. *)
