(** Static well-formedness checks on kernels.

    Run before a kernel is simulated or instrumented; catches the
    mistakes that would otherwise surface as confusing runtime failures:
    dangling branch targets, unknown parameter/shared symbols, duplicate
    labels or shared declarations, [cas] without two sources, and what
    the simulator cannot honour: stores and atomics on [.param], and a
    parameter load at a non-zero offset. *)

type issue = {
  index : int;  (** instruction index, or -1 for kernel-level issues *)
  message : string;
}

val check : Ast.kernel -> issue list
(** All issues found; empty means well-formed. *)

val check_exn : Ast.kernel -> unit
(** @raise Invalid_argument listing every issue if any is found. *)

val fail : Ast.kernel -> issue list -> 'a
(** Raise [issues] as {!check_exn} does, for the checks that need more
    than the instruction list, such as [Cfg.Dominance]'s.
    @raise Invalid_argument always. *)

