(** Pretty-printer producing textual PTX the {!Parser} accepts back.

    [parse (print k)] round-trips to a kernel with the same instruction
    stream, which the test suite checks; the printer is also what the
    instrumentation pass uses to emit "rewritten binaries". *)

val pp_operand : Format.formatter -> Ast.operand -> unit
val pp_insn : Format.formatter -> Ast.insn -> unit
val pp_kernel : Format.formatter -> Ast.kernel -> unit
val kernel_to_string : Ast.kernel -> string
