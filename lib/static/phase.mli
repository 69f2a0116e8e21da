(** Barrier-interval phases.

    Chain barriers — unguarded [bar.sync]s whose blocks dominate the
    exit and sit outside every CFG cycle — execute exactly once per
    thread and in the same order for all threads, so they slice every
    thread's execution into the same numbered phases.  An access whose
    latest possible phase precedes another's earliest possible phase is
    barrier-ordered before it for every pair of same-block threads.

    All reasoning runs over an {e adjusted} edge set: a block ending in
    a guarded [ret]/[exit] also flows to its textual successor (threads
    whose predicate is false continue), an edge [Cfg.Graph] does not
    model. *)

type t

val build : Ptx.Ast.kernel -> Cfg.Graph.t -> t

val separated : t -> int -> int -> bool
(** [separated t a b]: every execution of [a] is barrier-ordered before
    every execution of [b], for every pair of threads in a block. *)

val pinned : t -> int -> int option
(** The phase the instruction always executes in, when min = max. *)

val all_chained : t -> bool
(** Every reachable [bar.sync] in the kernel is a chain barrier —
    required before trusting pinned phases for racy verdicts. *)

val dominates_exit : t -> block:int -> bool
(** The block executes in every terminating thread. *)

val block_reachable : t -> int -> bool
(** Reachable from entry over the adjusted edges. *)

val preds : t -> int -> int list
(** Adjusted-edge predecessors of a block (includes the guarded-exit
    fallthrough edges). *)

val barriers : t -> (int * int) list
(** Chain barriers as [(block, insn)] pairs, in phase order. *)
