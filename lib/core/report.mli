(** Race reports and error collection.

    When two accesses race, the detector knows the current access
    precisely and the previous one through its recorded epoch, which is
    enough to name both threads and classify the race by where the
    threads sit in the hierarchy (§4.3.3): same warp (which includes the
    paper's new {e branch-ordering races}), same block, or across
    blocks. *)

type access_kind = Read | Write | Atomic_rmw

type race_class =
  | Intra_warp  (** includes divergence / branch-ordering races *)
  | Intra_block
  | Inter_block

type race = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : access_kind;
  prev_insn : int;
      (** static instruction id of the previous access, [-1] if unknown *)
  cur_tid : int;
  cur_kind : access_kind;
  cur_insn : int;
      (** static instruction id of the current access, [-1] if unknown *)
  same_instruction : bool;
      (** both accesses belong to the same warp-level instruction *)
  cls : race_class;
}

type error =
  | Race of race
  | Barrier_divergence of { warp : int; insn : int }

type t
(** A mutable collector with duplicate suppression: one report per
    (location, thread pair, kind pair).  Not synchronised: a report
    belongs to the detector that fills it and follows its ownership
    contract (see {!Detector.t}). *)

val create : ?max_reports:int -> layout:Vclock.Layout.t -> unit -> t

val classify : Vclock.Layout.t -> int -> int -> race_class

val add_race :
  t ->
  prev_insn:int ->
  cur_insn:int ->
  loc:Gtrace.Loc.t ->
  prev_tid:int ->
  prev_kind:access_kind ->
  cur_tid:int ->
  cur_kind:access_kind ->
  same_instruction:bool ->
  unit
(** The instruction ids ([-1] when unknown) are metadata for repair
    localization; they do not participate in deduplication, so the
    first report for a (loc, tids, kinds) key fixes the ids seen
    downstream. *)

val add_barrier_divergence : t -> warp:int -> insn:int -> unit
val errors : t -> error list
(** In detection order, capped at [max_reports]. *)

val race_count : t -> int
(** Distinct races detected (dedup key above), even beyond the cap. *)

val racy_locations : t -> int
(** Number of distinct locations involved in at least one race. *)

val has_race : t -> bool

(** {1 Transport integrity}

    The detector's [feed_record] path notes every transport anomaly it
    absorbs.  A report with any anomaly is {e degraded}: detection ran,
    but part of the event stream was lost or corrupted in transport, so
    a race-free verdict may under-report.  Degradation is surfaced as a
    caveat on the verdict, never as a crash. *)

type integrity = { corrupt : int; gaps : int; stale : int; desync : int }

val note_corrupt : t -> unit
(** A record failed its magic/version/checksum validation, or named an
    opcode, warp, instruction or block that the detector's layout and
    kernel do not have, and was skipped. *)

val note_gap : t -> int -> unit
(** [n] records were lost between consecutive sequence numbers. *)

val note_stale : t -> unit
(** A duplicate or out-of-date sequence number was skipped. *)

val note_desync : t -> unit
(** A control record (branch else/fi) arrived with no matching
    divergence frame — its opener was lost upstream — and was skipped
    instead of corrupting the reconvergence stack. *)

val integrity : t -> integrity
val degraded : t -> bool

val error_to_string : error -> string
(** One error as [check] prints it and a daemon reply carries it, e.g.
    [intra-block race on s0:0x4: write by t0 (insn 3) vs read by t32
    (insn 5)].  An instruction id below 0 (none known) is left out. *)

val pp_error : Format.formatter -> error -> unit
(** Prints {!error_to_string}. *)

val pp_kind : Format.formatter -> access_kind -> unit
