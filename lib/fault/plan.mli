(** Deterministic, seeded fault plans for resilience campaigns.

    A plan is built from a {!spec} and injected into the serial
    record sink ([Gpu_runtime.Session.serial_sink]), the service worker pool
    ([Service.Scheduler]), and the SIMT interpreter ([Simt.Machine]).
    Every decision is a pure function of (seed, stream tag, counter) —
    there is no shared RNG state — so a campaign with a fixed seed
    makes the identical injection decisions regardless of domain or
    thread interleaving. *)

type spec = {
  seed : int;
  bit_flip : float;  (** per-record probability of a single-bit flip *)
  drop : float;  (** per-record probability the consumer loses it *)
  duplicate : float;  (** per-record probability it is fed twice *)
  delay : float;  (** per-record probability of reorder-delay *)
  delay_hold : int;  (** records a delayed record is held back *)
  worker_crash : float;  (** per-(job, attempt) crash probability *)
  crash_once_jobs : int list;  (** job ids that crash on attempt 0 only *)
  poison_jobs : int list;  (** job ids that crash on every attempt *)
  reg_flips : int;  (** register bit flips per launch *)
  smem_flips : int;  (** shared-memory bit flips per launch *)
  fault_window : int;  (** steps across which machine faults spread *)
  shard_crash_shards : int list;
      (** shard consumer domains ([Shard.Engine]) that die mid-job *)
  shard_crash_after : int;
      (** records a doomed shard consumes before dying *)
}

val none : spec
(** All probabilities and counts zero: a plan that injects nothing. *)

type t

val make : spec -> t
val spec : t -> spec

(** Counters of faults actually injected, for campaign accounting.
    Filled in by the injection sites as they consult the plan. *)
type injected = {
  flips : int;
  drops : int;
  dups : int;
  delays : int;
  crashes : int;
  shard_crashes : int;
  reg_flips_applied : int;
  smem_flips_applied : int;
}

val injected : t -> injected
val reset_injected : t -> unit

(** {1 Transport faults}

    Consulted by the serial record sink once per sealed record. *)
module Transport : sig
  type action =
    | Pass
    | Flip of int
        (** Flip one bit; the payload is raw entropy the sink
            reduces modulo the record's bit width. *)
    | Drop  (** Never feed the record to the detector. *)
    | Duplicate  (** Feed the record twice. *)
    | Delay of int
        (** Copy the record aside and re-feed it after [n] more
            records (manifests as a gap followed by a stale record). *)

  type stream
  (** One deterministic decision stream over a record sequence. *)

  val stream : t -> stream
  val next : stream -> action
end

(** {1 Worker crashes} *)

exception Injected_worker_crash
(** Raised by the scheduler worker when the plan says to crash. *)

val crash_at_pickup : t -> job:int -> attempt:int -> bool
(** Whether the worker picking up [job] on its [attempt]-th
    crash-restart should crash.  [poison_jobs] crash on every attempt
    (exercising quarantine); [crash_once_jobs] crash only on attempt 0
    (exercising requeue + retry); otherwise a seeded Bernoulli draw of
    probability [worker_crash]. *)

(** {1 Shard crashes} *)

exception Injected_shard_crash
(** Raised inside a shard consumer domain when the plan dooms it. *)

val shard_crash_after : t -> shard:int -> int option
(** [Some n] if the plan dooms shard [shard]: its consumer domain must
    raise {!Injected_shard_crash} after consuming [n] records.  [None]
    for surviving shards. *)

val note_shard_crash : t -> unit
(** Called by the dying consumer so campaign accounting sees the
    injection. *)

(** {1 Machine faults} — gpuFI-style architectural bit flips. *)

type machine_fault =
  | Reg_flip of { warp_r : int; reg_r : int; lane_r : int; bit : int }
      (** Raw selectors; [Simt.Machine] reduces each modulo the live
          warp/register/lane population at injection time. *)
  | Smem_flip of { block_r : int; addr_r : int; bit : int }

val machine_faults : t -> (int * machine_fault) array
(** The per-launch fault schedule, sorted by step.  Faults scheduled
    past the end of a short run never fire. *)

val note_reg_applied : t -> unit
val note_smem_applied : t -> unit
