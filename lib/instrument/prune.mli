(** Intra-basic-block logging redundancy elimination (§4.1).

    Following RedCard-style reasoning, BARRACUDA skips the logging call
    for a memory access whose address register has not changed since an
    earlier logged access to the same address within the same basic
    block: the earlier log entry already captures the race-relevant
    event, and same-thread accesses in one block are program-ordered.
    The rule is kind-aware: a load is redundant after a logged load or
    store, a store only after a logged store — a logged load cannot
    stand in for a later store's write.

    [redundant k] marks, per instruction, the accesses whose logging the
    optimized instrumentation drops.  An address is keyed by (state
    space, base operand, offset, width); a key dies when its base
    register is overwritten, and all keys die at basic-block
    boundaries, barriers and fences (fences change the synchronization
    role of neighbouring accesses). *)

val redundant : ?exclude:bool array -> Ptx.Ast.kernel -> bool array
(** [exclude] masks instructions (by original index) that must neither
    serve as the earlier-access witness nor be marked redundant —
    the instrumentation pass excludes statically-pruned accesses, whose
    log records will not exist at runtime. *)
