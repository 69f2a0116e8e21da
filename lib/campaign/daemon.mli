(** Continuous background fault campaign, designed to live inside the
    race-checking daemon process.

    A single thread walks the journal's deterministic trial space in
    batches, checkpointing the {!Journal} to disk after every batch
    (atomic rename), so the campaign resumes exactly where it left off
    after a crash or restart and a kill can never lose or double-count
    trials.

    The campaign is strictly lowest-priority: before each batch it
    probes [load] — in the daemon, [Service.Server.load], its queued +
    executing jobs — and yields whenever any paying work is queued or
    running;
    between batches it sleeps the duty-cycle complement of the batch's
    runtime, so even an idle service only spends [duty] of wall-clock
    on fault trials. *)

type config = {
  seed : int;
  cases : int;  (** bug-suite cases swept (clamped to the suite size) *)
  trials : int;  (** trials per (case, fault class) *)
  batch : int;  (** trials per checkpoint *)
  duty : float;
      (** fraction of wall-clock spent running trials when the service
          is otherwise idle (clamped to [0.01, 1.0]) *)
}

val default_config : config
(** seed 42, 8 cases, 25 trials, batch 8, duty 0.25. *)

type t

val start :
  ?config:config ->
  load:(unit -> int) ->
  dir:string ->
  unit ->
  (t, string) result
(** Open the journal in [dir] with {!Journal.open_dir} (resuming one
    if present), then spawn the sweep thread.  [load] is the paying
    work right now; any positive value pauses the sweep.  [Error] on a batch below
    1 or anything {!Journal.open_dir} rejects. *)

val status : t -> Service.Protocol.campaign_status
(** Live snapshot for status replies and the fleet dashboard. *)

val stop : t -> unit
(** Stop the sweep thread and write a final checkpoint. *)
