(** Static inference of synchronization roles (paper §3.1).

    CUDA has no high-level acquire/release primitives — even the CUDA
    C/C++ API defines synchronization in terms of fences plus plain
    loads/stores/atomics — so BARRACUDA infers them from static PTX
    patterns:

    - a store immediately preceded by a fence is a {e release};
    - a load immediately followed by a fence is an {e acquire};
    - an atomic sandwiched between fences is an {e acquire-release};
    - [atom.cas] followed by a fence is an acquire (lock acquisition);
    - [atom.exch] preceded by a fence is a release (lock release);
    - everything else is a plain access (standalone [atm] for atomics).

    For plain loads/stores, "immediately" means textual adjacency with
    no intervening label.  For atomics the pairing scans through a small
    window of pure-ALU/branch instructions (never past another memory
    access, a barrier, or a label), because a compiled spin-lock loop
    puts the loop test between the CAS and its fence — this mirrors the
    paper's tuning of the inference on lock idioms.  Fence scope maps
    [membar.cta] to block scope and [membar.gl]/[membar.sys] to global
    scope (system fences are treated as global for intra-kernel
    analysis). *)

type t =
  | Plain
  | Acquire of Op.scope
  | Release of Op.scope
  | Acquire_release of Op.scope

val classify : Ptx.Ast.kernel -> t array
(** One role per instruction; non-memory instructions are [Plain]. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
