(** Compressed vector clocks.

    A [Cvc.t] represents a full vector clock over the grid as three
    layers, resolved by taking the maximum:

    - {b block floors}: "every thread of block [b] is at least [c]" —
      produced by block barriers and block-scoped synchronization;
    - {b warp floors}: "every thread of warp [w] is at least [c]" —
      produced by lockstep warp execution;
    - {b point entries}: exact per-thread clocks — own entries, divergent
      lanes, and point-to-point acquire/release chains.

    This is the value representation BARRACUDA stores for
    synchronization-location metadata ([S_x]) and materialized thread
    clocks: it is lossless (always equivalent to some full vector clock)
    while staying proportional to the amount of synchronization that
    actually happened rather than to the grid size. *)

type t

val layout : t -> Layout.t

val bottom : Layout.t -> t
(** All-zero clock for a grid. *)

val is_bottom : t -> bool
val get : t -> int -> int

val set_point : t -> int -> int -> t
(** [set_point v t c] raises thread [t]'s entry to at least [c].
    (Entries already above [c] from a floor are kept: a [Cvc.t] can only
    grow, which is the only mutation race detection needs.) *)

val raise_block : t -> int -> int -> t
(** [raise_block v b c] raises every entry of block [b] to at least [c]. *)

val raise_warp : t -> int -> int -> t
(** [raise_warp v w c] raises every entry of warp [w] to at least [c]. *)

val join : t -> t -> t
(** Pointwise maximum. @raise Invalid_argument on layout mismatch. *)

val leq : t -> t -> bool
(** Pointwise order. Cost is proportional to the supports, not the grid. *)

val to_vector_clock : t -> Vector_clock.t
(** Expand to an explicit sparse clock (grid-sized in the worst case;
    intended for tests and small grids). *)

val of_vector_clock : Layout.t -> Vector_clock.t -> t

val equal : t -> t -> bool
(** Semantic equality (same entries for every thread). *)

val footprint : t -> int
(** Number of stored floors + point entries: the compression measure
    reported by the PTVC ablation benchmark. *)

val pp : Format.formatter -> t -> unit

(** Mutable sibling of {!t} for detector-owned state.

    The hot path of the online detector raises clocks in place instead
    of rebuilding a persistent value per operation.  Ownership rules:

    - a [Mut.t] is owned by exactly one component (a lane overlay in
      [Barracuda.Detector.Warp_clocks], a shadow cell's read clock, a
      [Sync_loc] entry) and
      must only be mutated by its owner, under the owner's lock when the
      owner is shared between domains;
    - wherever a clock {e escapes} its owner — race reports, sync-
      location reads, predict's graph, witness serialization, anything
      crossing a domain boundary — it must first be converted to the
      persistent exchange format with {!Mut.freeze}. *)
module Mut : sig
  type cvc := t
  type t

  val create : Layout.t -> t
  (** Fresh all-zero mutable clock. *)

  val layout : t -> Layout.t
  val get : t -> int -> int

  val raise_point : t -> int -> int -> unit
  (** [raise_point m t c] raises thread [t]'s entry to at least [c],
      in place.  Raising an already-covered entry is a no-op and does
      not allocate. *)

  val raise_warp : t -> int -> int -> unit
  val raise_block : t -> int -> int -> unit

  val join_into : cvc -> t -> unit
  (** [join_into v m] folds the persistent clock [v] into [m]
      (pointwise maximum), in place.
      @raise Invalid_argument on layout mismatch. *)

  val merge_into : t -> into:t -> unit
  (** Mutable-to-mutable join; [src] is not modified. *)

  val freeze : t -> cvc
  (** Snapshot into the persistent exchange format.  The result shares
      no mutable state with [m]: this is the mandatory boundary when a
      clock escapes its owner. *)

  val thaw : cvc -> t
  (** Mutable copy of a persistent clock.  [freeze (thaw v)] is
      semantically equal to [v]. *)

  val copy : t -> t
  val clear : t -> unit
  val is_bottom : t -> bool

  val iter_points : (int -> int -> unit) -> t -> unit
  (** Iterate the exact per-thread point entries (not the floors); the
      read-clock use case only ever raises points. *)

  val footprint : t -> int
  (** Stored floors + point entries.  Upper bound only: entries a later
      floor subsumed are counted until the next [freeze]. *)
end
