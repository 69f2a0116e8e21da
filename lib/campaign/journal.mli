(** Versioned on-disk journal for resumable fault campaigns, and the
    one engine that walks their trial space: [faults], [fleet] and the
    in-daemon campaign all open ({!open_dir}), step ({!step},
    {!advance}) and judge ({!clean}) a journal here.

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
    carry {!schema_version}; {!open_dir} rejects a mismatched version with
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
(** A fresh journal at cursor 0, with [cases] clamped to the bug
    suite's size.
    @raise Invalid_argument when [cases] or [trials] is below 1. *)

val total : t -> int
(** [cases * classes * trials]. *)

val complete : t -> bool

val step : ?baselines:(int, bool) Hashtbl.t -> t -> n:int -> int
(** Advance the cursor by up to [n] trials (bounded by the trial
    space) and return how many ran.  Pure deterministic replay: which
    trials run and their outcomes depend only on the seed and the
    cursor.  Counts one batch when at least one trial ran.
    [baselines] memoizes fault-free verdicts per case across calls. *)

val silent_wrong : t -> int

val clean : t -> bool
(** No silent-wrong and no crashed trial so far: the verdict on a
    journal, complete or not. *)

val ok : t -> bool
(** {!complete} and {!clean}. *)

val classes_json : (string * Trial.cell) list -> Telemetry.Json.t
(** The per-class cells as one JSON object, keyed by class name; the
    one encoding of a cell, shared by journals and campaign reports. *)

val path : dir:string -> string
val save : dir:string -> t -> unit
(** Atomic checkpoint (creates [dir] if missing). *)

type spec = { seed : int; cases : int; trials : int }
(** A campaign to create: its seed and dimensions. *)

val open_dir : ?fresh:spec -> string -> (t, string) result
(** The campaign's one way in.  Resume the journal in the directory,
    rejecting missing files, unparsable journals and schema-version
    mismatches (loud, versioned message); the journal's own seed and
    dimensions win.  With [fresh] and no journal there, create and
    checkpoint one instead.  [fresh] is validated as {!create} does
    before anything is read or written: nothing is written on
    [Error]. *)

val advance :
  ?baselines:(int, bool) Hashtbl.t -> dir:string -> t -> n:int -> int
(** One batch: {!step} by up to [n] trials, then checkpoint to [dir]
    if any ran.  Returns how many ran. *)

val report_json : t -> string
(** One deterministic JSON line: schema version, seed, dimensions,
    trials done, overall verdict and per-class counts — no batch or
    resume counts, so interrupted+resumed and uninterrupted runs
    render identically. *)

val pp : Format.formatter -> t -> unit
