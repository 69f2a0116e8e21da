(** Seeded fault-injection campaigns over the bug suite.

    One campaign = three sweeps, all driven by {!Fault.Plan}:

    - {b transport}: for each fault class (bit flip / drop / duplicate
      / reorder-delay), run bug-suite cases through the serial check
      with that class injected and classify each trial
      against the fault-free baseline verdict:
      {e masked} (verdict unchanged, nothing flagged),
      {e absorbed} (verdict unchanged, [degraded] flagged),
      {e degraded_wrong} (verdict changed but flagged — evidence was
      lost and the report says so), {e silent_wrong} (verdict changed
      with no flag — the failure mode the integrity layer exists to
      rule out; must be zero), or {e crashed} (must be zero);
    - {b machine}: gpuFI-style register/shared-memory bit flips inside
      the interpreter, classified masked / SDC / crashed — these
      corrupt the {e program} rather than the transport, so a changed
      verdict is legitimate behavior, not a detector failure;
    - {b service}: a live {!Service.Scheduler} with planned worker
      crashes — every third job crashes its worker once (the worker
      must requeue it and the retried verdicts must match one-shot
      checking) and a final poison job crashes every attempt (it must
      come back [Failed] with code ["quarantined"]);
    - {b shard}: sharded detection ({!Shard.Stream.sink}) with one shard
      consumer domain doomed to die mid-job — the job must fail loudly
      ([Shard.Engine.Shard_crashed]), never complete from a partial
      merge.

    Reports carry only counts derived from the seed — no timestamps —
    so a fixed-seed campaign is bitwise reproducible.

    Beyond the foreground sweep, the library exposes the fleet-mode
    building blocks: {!Trial} (the per-trial machinery every sweep
    shares), {!Journal} (the trial-space walk and the versioned on-disk
    checkpoint that makes campaigns resumable) and {!Daemon} (the continuous
    background sweep that runs inside the live service at a duty
    cycle). *)

module Trial = Trial
module Journal = Journal
module Daemon = Daemon

type config = {
  seed : int;
  quick : bool;
      (** CI mode: 8 transport cases, 1 trial per class, smaller
          machine/service sweeps *)
  trials : int;  (** transport trials per (case, class) when not quick *)
}

val default_config : config
(** seed 42, full sweep, 3 trials. *)

type cell = Trial.cell = {
  trials : int;
  injected : int;  (** faults actually injected across the trials *)
  masked : int;
  absorbed : int;
  degraded_wrong : int;
  silent_wrong : int;  (** must be 0 *)
  crashed : int;  (** must be 0 *)
}

type machine_cell = {
  m_trials : int;
  applied : int;
  m_masked : int;
  sdc : int;
  m_crashed : int;
}

type service_cell = {
  jobs : int;
  parity : bool;
  workers_restarted : int;
  quarantined : int;
  quarantine_ok : bool;
}

type shard_cell = {
  s_trials : int;
  s_injected : int;  (** shard-crash injections that actually fired *)
  s_loud : int;  (** jobs that failed loudly with [Shard_crashed] *)
  s_masked : int;
      (** the crash never fired (record stream shorter than the
          trigger) and the verdict matched the baseline *)
  s_silent_wrong : int;
      (** completed with a wrong verdict, or completed at all despite
          a fired crash — must be 0 *)
}

type t = {
  seed : int;
  cases : int;
  transport : (string * cell) list;
  machine : machine_cell;
  service : service_cell;
  shard : shard_cell;
}

val run : ?config:config -> unit -> t
(** The transport sweep steps a fresh {!Journal} over the whole trial
    space, so its cells are exactly what [fleet] would journal for the
    same seed, cases and trials.
    @raise Invalid_argument when [config.trials] is below 1 (and not
    [quick]). *)

val ok : t -> bool
(** No silent corruption, no transport crashes, service parity held,
    at least one worker crash was recovered, exactly the poison job
    was quarantined, every fired shard crash failed its job loudly,
    and at least one shard crash actually fired. *)

val to_json : t -> string
(** One line, keys in a fixed order, starting with
    [{"schema_version":N,...}] ({!Journal.schema_version}); bitwise
    identical across runs with the same seed and config. *)

val pp : Format.formatter -> t -> unit
