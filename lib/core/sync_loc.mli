(** Metadata for synchronization locations: the [S_x] map (§3.3, §4.3.3).

    A location accessed with acquire/release operations is a
    synchronization location; most programs have few or none, so instead
    of widening every shadow cell they live in their own map.  Per the
    semantics, [S_x] is a map from thread block to vector clock; a
    global release writes every block's entry at once, which we
    represent as a single grid-wide clock plus per-block overrides so a
    million-block grid never materializes a million entries.

    Internally entries are {!Vclock.Cvc.Mut} clocks owned by this map
    (a release clears and refills the existing entry in place).  The
    interface exchanges only persistent {!Vclock.Cvc.t} values:
    {!effective} and {!join_all_blocks} freeze before the clock escapes
    — a caller may keep it past the next release — and releases copy
    on the way in.  Not synchronised: the map belongs to one detector
    and follows its ownership contract (see {!Detector.t}). *)

type t

val create : Vclock.Layout.t -> t

val effective : t -> Gtrace.Loc.t -> block:int -> Vclock.Cvc.t option
(** [S_x[block]]: the block's entry, falling back to the last global
    release; [None] when the location was never released to. *)

val join_all_blocks : t -> Gtrace.Loc.t -> Vclock.Cvc.t option
(** The join over every block's entry (what a global acquire reads). *)

val release_block : t -> Gtrace.Loc.t -> block:int -> Vclock.Cvc.t -> unit
val release_global : t -> Gtrace.Loc.t -> Vclock.Cvc.t -> unit

val count : t -> int
(** Number of distinct synchronization locations seen. *)

val mem : t -> Gtrace.Loc.t -> bool
