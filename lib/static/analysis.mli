(** Static race verdicts for a kernel's memory accesses.

    Every memory access gets one of three verdicts:

    - [Safe]: the access can never be one side of a cross-thread
      conflicting pair, so its logging may be dropped without changing
      the detected race set (proved via read-only bases, provably
      disjoint per-thread footprints, barrier-phase separation,
      private address spaces, or dead code);
    - [Racy]: the access belongs to at least one pair that must race on
      any launch layout with enough warps (see {!realizable_pairs});
    - [Unknown]: instrument and check dynamically, as before.

    Nothing is assumed about the launch's arguments: two pointer
    parameters may address one buffer.  Provably disjoint per-thread
    footprints are proved over [%tid.x] and [%ctaid.x], which name
    every thread only on a 1-D launch; {!Plan} applies the [Safe]
    verdicts there alone. *)

type klass = Thread_uniform | Lane_affine | Thread_private | Unknown_addr

type safe_reason =
  | Read_only
  | Disjoint_footprints
  | Barrier_phased
  | Private_space
  | Dead_code

type layout_need = { min_warps : int; min_block_warps : int }
(** Minimum launch shape for a static race to materialize: uniform
    conflicts need two warps (same block when shared) because intra-warp
    pairs are lockstep-ordered. *)

type racy_pair = {
  a_insn : int;
  b_insn : int;
  pair_space : Ptx.Ast.space;
  base_param : string option;
      (** global base parameter the address is relative to, if any *)
  addr : int64;
  pair_width : int;
  a_write : bool;
  b_write : bool;
  need : layout_need;
}

type verdict = Safe of safe_reason | Racy | Unknown
type t

val analyze : Ptx.Ast.kernel -> t
(** Run the affine dataflow, phase analysis and pairwise footprint
    comparison, classifying every instruction's {!Gtrace.Roles} role
    on the way. *)

val roles : t -> Gtrace.Roles.t array
(** Per instruction: the fence-induced role the detector gives it. *)

val verdict : t -> int -> verdict option
(** Verdict for an instruction index; [None] if it is not a memory
    access. *)

val klass : t -> int -> klass
(** Address classification (display only; verdicts are what matter). *)

val safe_mask : t -> bool array
(** Per-instruction: true iff the verdict is [Safe]. *)

val pairs : t -> racy_pair list

val counts : t -> int * int * int
(** (safe, racy, unknown) access counts. *)

val realizable_pairs : t -> layout:Vclock.Layout.t -> racy_pair list
(** The subset of {!pairs} the launch layout can actually exhibit. *)

val provably_racy : t -> layout:Vclock.Layout.t -> bool

val klass_name : klass -> string
val reason_name : safe_reason -> string
val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val pp_pair : Format.formatter -> racy_pair -> unit
