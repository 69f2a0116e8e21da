(** Compressed per-thread vector clocks, managed at warp granularity
    (the paper's PTVC scheme, §4.3.1, Figure 7).

    The full vector clock of an active thread [t] in warp [w] is never
    materialized; it is represented as the maximum of four layers:

    - its {e own} entry (one int per lane, [own]);
    - entries for warp-mates, from the current divergence frame: [local]
      for lanes active on the same path, frozen snapshot values ([sib])
      for lanes suspended on the other path of a branch;
    - a per-warp {e block clock}: the last time the warp synchronized
      with the rest of its block (block barriers);
    - an optional per-lane {e overlay} ({!Vclock.Cvc.t}) holding
      entries gained through acquire operations — arbitrary
      point-to-point synchronization.

    These layers correspond exactly to the paper's four formats — a warp
    with no divergence and no overlays is CONVERGED; one frozen scalar is
    DIVERGED; per-lane frozen values are NESTEDDIVERGED; overlays make it
    SPARSEVC — and {!format_of} reports which one a warp is in, feeding
    the compression ablation.

    Joins at [endi]/branch/barrier points renormalize the active lanes to
    a common clock (the maximum involved).  This "clock skipping" is
    race-transparent — it only ever raises a thread's {e own} entry,
    never another thread's view of it beyond that thread's own epochs —
    and is what keeps every format O(warp) instead of O(grid).  The
    equivalence with the literal semantics is checked against
    {!Reference} by the test suite.

    Overlays are {!Vclock.Cvc.Mut} values under copy-on-write
    ownership: a join point installs one shared union clock into every
    active lane, an acquire copies a shared overlay before raising it
    in place, and the steady state (no live overlays) allocates
    nothing.  Clocks leave the warp only as persistent snapshots —
    {!materialize} and {!overlay_union} freeze on the way out — so no
    mutable clock is ever visible outside the domain that owns the
    warp. *)

type t

type format = Converged | Diverged | Nested_diverged | Sparse_vc

val create : Vclock.Layout.t -> warp:int -> t
val block : t -> int
(** The warp's block. *)

val first_tid : t -> int
(** Global thread id of lane 0: lane [l] is thread [first_tid t + l]. *)

val active_mask : t -> int
val depth : t -> int
(** Divergence-stack depth (1 = converged). *)

val own_clock : t -> lane:int -> int
val epoch : t -> lane:int -> Vclock.Epoch.t
(** Current epoch [E(t)] of a lane. *)

val entry : t -> lane:int -> tid:int -> int
(** [entry t ~lane ~tid] is [C_lane(tid)]: the full-clock entry that the
    thread at [lane] holds for thread [tid]. *)

val join_fork : t -> mask:int -> unit
(** The [endi] operation: join the clocks of [mask]'s lanes and fork
    them one tick later. *)

val push_if : t -> then_mask:int -> else_mask:int -> unit
(** Divergence: freeze the current view for the else path, then
    join-fork the then path. *)

val path_depth : t -> int
(** Divergence frames currently on the stack, counting the root frame:
    [1] means no divergence is open and {!pop_path} would raise.
    Lossy-transport consumers probe this to skip an else/fi whose
    opening [branch_if] record was lost. *)

val pop_path : t -> mask:int -> unit
(** An [else] or [fi]: pop one divergence frame, activate [mask] (which
    may exclude lanes that retired inside the branch), and join-fork
    it. [mask = 0] just pops.
    @raise Invalid_argument when only the root frame remains. *)

val acquire : t -> lane:int -> Vclock.Cvc.t -> unit
(** Join an acquired synchronization clock into one lane's overlay. *)

val release_increment : t -> lane:int -> unit
(** Bump one lane's own clock (the increment a release performs). *)

val materialize : t -> lane:int -> Vclock.Cvc.t
(** The lane's full clock as a compressed value (what a release
    publishes to [S_x]). *)

val to_vector_clock : t -> lane:int -> Vclock.Vector_clock.t
(** Explicit expansion, for tests on small grids. *)

val max_own : t -> int
(** Maximum own-clock across all lanes (live and retired): the warp's
    contribution to a block barrier. *)

val apply_barrier : t -> clock:int -> overlay:Vclock.Cvc.t option -> unit
(** Block barrier: renormalize live lanes to [clock], freeze retired
    lanes at their final clocks, raise the block clock, and install the
    block-wide overlay union. *)

val block_clock : t -> int
val overlay_union : t -> Vclock.Cvc.t option
(** Join of the live lanes' overlays (for barrier propagation). *)

val format_of : t -> format
val footprint_bytes : t -> int
(** Approximate metadata bytes this warp's PTVC occupies, mirroring the
    paper's 16-byte stack entries. *)

val pp_format : Format.formatter -> format -> unit
