(** Candidate validation through the unchanged detection stack.

    A fix is accepted only if the printed patch re-parses, passes
    static validation, runs race-free and divergence-free through the
    serial check (twice — determinism), matches verdicts with the
    sharded check, shows no race under predictive schedule
    exploration, and survives a quick seeded fault-campaign slice
    without crashing or producing an undegraded race verdict. *)

type config = {
  max_steps : int;
  shards : int;  (** shard count for the parity run (min 2) *)
  seed : int;  (** seeds the two fault-slice runs *)
}

type verdict =
  | Accepted of Ptx.Ast.kernel * string
      (** [(reparsed, ptx)]: the printed artifact and its re-parse,
          which is what every validation stage actually ran *)
  | Rejected of string  (** reason *)

val check :
  config:config ->
  layout:Vclock.Layout.t ->
  setup:(Simt.Machine.t -> int64 array) ->
  baseline_bardiv:bool ->
  Ptx.Ast.kernel ->
  verdict
(** [baseline_bardiv] is the unrepaired kernel's barrier-divergence
    status: a fix may not {e introduce} divergence, but is not required
    to cure pre-existing divergence. *)
