(** Control-flow graph over a kernel's instruction array.

    Basic blocks are maximal straight-line instruction ranges; block 0 is
    the entry.  A synthetic exit node (index {!exit_node}) succeeds every
    returning block so that post-dominance is well-defined even for
    kernels with several [ret]s.

    A {e guarded} branch ([@%p bra L]) is conditional — its block has two
    successors — while [bra.uni] and unguarded [bra] are unconditional.
    This is exactly the distinction the SIMT stack cares about: only
    conditional branches can diverge. *)

type block = {
  id : int;
  first : int;  (** index of the first instruction *)
  last : int;  (** index of the last instruction (inclusive) *)
  succs : int list;  (** successor block ids ({!exit_node} for returns) *)
}

type t

val of_kernel : Ptx.Ast.kernel -> t
(** @raise Invalid_argument on branches to unknown labels. *)

val kernel : t -> Ptx.Ast.kernel
val blocks : t -> block array
(** All real blocks, indexed by id. *)

val exit_node : t -> int
(** Id of the synthetic exit node (= number of real blocks). *)

val block_of_insn : t -> int -> int
(** Block id containing an instruction index. *)

val preds : t -> int -> int list
(** Predecessor block ids (of real blocks or the exit node). *)

val succs : t -> int -> int list

val is_conditional_branch : t -> int -> bool
(** [is_conditional_branch g i]: instruction [i] is a guarded branch with
    two distinct successors. *)

val pp : Format.formatter -> t -> unit
