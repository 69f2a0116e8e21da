(** Dominance and post-dominance on a control-flow graph.

    Computed with the iterative Cooper–Harvey–Kennedy algorithm over a
    reverse-post-order numbering.  Post-dominance drives SIMT
    reconvergence: the hardware (and our simulator) reconverges a
    divergent warp at the {e immediate post-dominator} of the branch. *)

type t

val compute :
  nodes:int ->
  root:int ->
  succs:(int -> int list) ->
  preds:(int -> int list) ->
  t
(** Dominator tree of an arbitrary digraph given by adjacency functions
    (nodes are [0 .. nodes-1]).  Exposed so analyses can run dominance
    over adjusted edge sets (and so the algorithm can be property-tested
    on irreducible and multi-exit graphs directly). Nodes unreachable
    from [root] get no immediate dominator. *)

val dominators : Graph.t -> t
(** Dominator tree rooted at the entry block. *)

val post_dominators : Graph.t -> t
(** Post-dominator tree rooted at the synthetic exit node. *)

val idom : t -> int -> int option
(** Immediate (post-)dominator of a block; [None] for the root and for
    unreachable blocks. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: [a] (post-)dominates [b] (reflexive). *)

val reconvergence_block : Graph.t -> t -> int -> int
(** [reconvergence_block g pdoms branch_insn]: block id of the immediate
    post-dominator of a conditional branch instruction's block — where a
    divergent warp reconverges. May be the exit node.
    @raise Invalid_argument if the instruction is not a conditional
    branch. *)

val reconvergence_pcs : Ptx.Ast.kernel -> int array
(** Per instruction of a kernel: for a conditional branch, the first
    instruction of its {!reconvergence_block}, or the instruction count
    when that is the exit node; [-1] for every other instruction.  The
    pcs the simulator pops a divergent warp at, and the instrumentation
    logs convergence at.
    @raise Invalid_argument as {!Graph.of_kernel} does, and as
    {!Ptx.Validate.check_exn} does for a kernel with a conditional
    branch that never reaches an exit, naming each such branch. *)
