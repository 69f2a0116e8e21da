(** The SIMT execution engine.

    Executes a kernel over a 1-D grid exactly as the CUDA model
    prescribes at warp granularity: every instruction is executed in
    lockstep by the active lanes of one warp, divergent branches are
    serialized through the {!Simt_stack} with reconvergence at the
    immediate post-dominator, [bar.sync] blocks a warp until its whole
    thread block arrives, and atomics serialize in lane order.

    Execution is sequentially consistent (the weak-memory behaviours the
    paper studies live in the separate [Memmodel] litmus machine); races
    are found {e logically} by the detector consuming the event stream,
    not by observing weak outcomes.

    The scheduler interleaves warps at instruction granularity —
    round-robin by default or pseudo-randomly from a seed — so distinct
    schedules can be explored deterministically. *)

type policy =
  | Round_robin
  | Random of int  (** seeded pseudo-random warp choice *)

type status =
  | Completed
  | Max_steps of int  (** stopped after the step budget; possible livelock *)
  | Deadline of int
      (** stopped at the wall-clock deadline after this many steps *)

type result = {
  status : status;
  dyn_instructions : int;  (** dynamic warp-level instructions executed *)
  barrier_divergence : bool;  (** some [bar.sync] ran with inactive lanes *)
}

type t

val create : ?policy:policy -> layout:Vclock.Layout.t -> unit -> t

val layout : t -> Vclock.Layout.t

val alloc_global : t -> int -> int
(** [alloc_global m bytes] reserves a fresh global-memory range and
    returns its base address.  Allocations are 8-byte aligned. *)

val global_memory : t -> Memory.t

val peek : t -> addr:int -> width:int -> int64
(** Read global memory (host-side view). *)

val poke : t -> addr:int -> width:int -> int64 -> unit
(** Write global memory (host-side initialization). *)

val launch :
  ?max_steps:int ->
  ?deadline_ns:int64 ->
  ?fault:Fault.Plan.t ->
  ?on_event:(Event.t -> unit) ->
  t ->
  Ptx.Ast.kernel ->
  int64 array ->
  result
(** [launch m kernel args] runs [kernel] with parameters bound to [args]
    positionally, emitting events to [on_event] as execution proceeds.

    A warp instruction is dispatched once and runs its own loop over
    the active lanes, with lane values unboxed: an ALU instruction
    allocates nothing and an access only its event.  An access event's
    [addrs] and [values] are the launch's own lane buffers, rewritten by
    its next access, so [on_event] may read them only during the call
    ({!Event.mem_access}).

    A kernel is validated and resolved once per content, not per
    launch: its program (registers numbered in sorted name order,
    operands resolved with each parameter as a slot of the argument
    array, branch targets and reconvergence pcs in place) comes from a
    process-wide memo keyed on the kernel ({!Lru}: the same kernel
    value costs a hash, a fresh parse of a known kernel one structural
    comparison), built on a miss.  A launch binds only [args], sets up
    its warps and executes.  The memo holds {!memo_capacity} programs
    and evicts the least recently used.  A program is immutable, so
    launches on any number of domains share it; two domains missing
    the same kernel at once may both build it, and both get the first
    inserted.  A kernel that fails validation is never remembered: it
    raises the same error on every launch.

    [deadline_ns] is an absolute monotonic timestamp
    ({!Telemetry.Clock.now_ns}); execution past it stops cooperatively
    (polled every 1024 steps) with status {!Deadline}.

    [fault] applies the plan's gpuFI-style machine-fault schedule —
    seeded register and shared-memory bit flips — at the scheduled
    steps.
    @raise Invalid_argument on an ill-formed kernel ({!Ptx.Validate}
    first) or wrong arity. *)

val memo_capacity : int
(** 128, as the check-plan memo ([Static.Plan.memo_capacity]). *)

val memo_stats : unit -> Lru.stats
(** Entries, hits, misses and evictions of the program memo. *)
