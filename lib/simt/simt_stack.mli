(** The per-warp SIMT reconvergence stack.

    GPUs serialize divergent control flow with a hardware stack: the top
    entry names the path currently executing (program counter + active
    mask) and the reconvergence point at which the entry is popped.  This
    module is a faithful software model: divergent branches push the
    second path and then the first, and reaching an entry's
    reconvergence pc pops it.

    The stack also reports {e path transitions}, which is what the race
    detector's [if]/[else]/[fi] trace operations are made of. *)

type entry = {
  pc : int;  (** next instruction index for this path *)
  mask : int;  (** lanes active on this path *)
  reconv : int;  (** pc at which this entry pops; [max_int] for the base *)
}

type t

val create : pc:int -> mask:int -> t
(** A converged warp about to execute [pc]. *)

val top : t -> entry
val active_mask : t -> int
val pc : t -> int
val set_pc : t -> int -> unit
(** Advance the current path. *)

val diverge : t -> reconv:int -> first:int * int -> second:int * int -> unit
(** [diverge st ~reconv ~first:(pc1, m1) ~second:(pc2, m2)] splits the
    current path; the [first] path runs before the [second].  Both masks
    must be non-empty, disjoint, and partition the current active mask.
    @raise Invalid_argument otherwise *)

type pop_result =
  | Switched of entry  (** moved to the other path of a divergence *)
  | Reconverged of entry  (** both paths done; execution resumes merged *)

val try_pop : t -> pop_result option
(** If the current pc reached the top entry's reconvergence point, pop
    and return what happened; [None] if the warp is mid-path. *)

val retire : t -> int -> unit
(** [retire st lanes] permanently removes [lanes] (a mask) from every
    entry: the lanes executed [ret]/[exit]. *)

val is_done : t -> bool
(** No live lanes remain anywhere in the stack. *)

val pp : Format.formatter -> t -> unit
