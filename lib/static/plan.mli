(** One check plan per kernel: what the detector must check.

    A plan holds, for every instruction of a kernel, its
    {!Gtrace.Roles} role and a drop bit, set on every access
    {!Analysis} proves [Safe]: an access that can never be one side of
    a cross-thread conflicting pair.  The detector skips a dropped
    access's record whole, exactly as if it had never been logged, and
    the instrumentation pass drops its logging call.  Both read the
    bits through {!drops}, which applies them to 1-D launches only:
    the disjointness proofs are written over [%tid.x] and [%ctaid.x],
    which threads share on a 2-D or 3-D launch.

    A plan is immutable once built, so domains share it freely. *)

type t

val of_kernel : Ptx.Ast.kernel -> t
(** The kernel's plan from a process-wide memo keyed on the kernel's
    content ({!Lru}: a lookup of the same kernel value pays a hash and
    no structural walk, a fresh parse of a known kernel a structural
    comparison),
    analyzing it on a miss.  The memo holds {!memo_capacity} plans and
    evicts the least recently used; two domains missing the same
    kernel at once may both analyze it, and both get the first plan
    inserted. *)

val memo_capacity : int
(** 128, the artifact cache's default. *)

val empty : t -> t
(** The same kernel and roles with no drop bits: the plan that checks
    every access. *)

val analysis : t -> Analysis.t

val roles : t -> Gtrace.Roles.t array
(** Per instruction ({!Analysis.roles}). *)

val drops : t -> layout:Vclock.Layout.t -> bool array
(** Per instruction: whether its access records go unchecked on this
    launch.  The proven-safe accesses on a 1-D layout
    ({!Vclock.Layout.one_dimensional}); none on any other. *)
