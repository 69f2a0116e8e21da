(** Versioned on-disk journal for resumable fault campaigns.

    The campaign's trial space — [cases x transport classes x trials]
    — is linearized case-major; the journal holds the cursor into that
    line plus the per-class {!Trial.cell} counts accumulated so far.
    Because each trial is a pure function of the seed tuple, resuming
    from the cursor reproduces exactly the trials an uninterrupted run
    would have performed: results merge monotonically, and a campaign
    killed at any trial boundary and resumed renders a
    bitwise-identical {!report_json}.

    Checkpoints are atomic (write to a temp file, rename into place),
    so a crash mid-save leaves the previous checkpoint intact.  Files
    carry {!schema_version}; {!load} rejects a mismatched version with
    a loud, versioned error rather than silently merging incompatible
    trial formats. *)

val schema_version : int
(** Version stamped into journals and campaign reports: 2.  Bumped
    whenever a trial's outcome for a given seed tuple changes, so a
    journal is never merged across trial functions. *)

val file_name : string
(** [campaign.json], under the journal directory. *)

type t = {
  j_seed : int;
  j_cases : int;
  j_trials : int;  (** trials per (case, class) *)
  mutable j_cursor : int;
      (** trials completed = the next linear trial index *)
  mutable j_batches : int;
      (** checkpointed batches — run-shape detail, excluded from
          {!report_json} so resumed runs stay bitwise identical *)
  mutable j_cells : (string * Trial.cell) list;
      (** per-class counts, in {!Trial.class_names} order *)
}

val create : seed:int -> cases:int -> trials:int -> t

val total : t -> int
(** [cases * classes * trials]. *)

val complete : t -> bool
val silent_wrong : t -> int

val ok : t -> bool
(** Complete with zero silent-wrong and zero crashes. *)

val to_json : t -> Telemetry.Json.t
val of_string : string -> (t, string) result

val path : dir:string -> string
val save : dir:string -> t -> unit
(** Atomic checkpoint (creates [dir] if missing). *)

val load : dir:string -> (t, string) result
(** Rejects missing files, unparsable journals and schema-version
    mismatches (loud, versioned message). *)

val report_json : t -> string
(** One deterministic JSON line: schema version, seed, dimensions,
    trials done, overall verdict and per-class counts — no batch or
    resume counts, so interrupted+resumed and uninterrupted runs
    render identically. *)

val pp : Format.formatter -> t -> unit
