(** The binary instrumentation pass (§4.1).

    Rewrites a kernel the way BARRACUDA rewrites extracted PTX:

    - a unique-TID computation is prepended to the kernel;
    - every racy-relevant instruction — loads/stores/atomics to global
      or shared memory, fences, barriers — gets a logging call;
    - branch convergence points (the immediate post-dominators of
      conditional branches) get logging calls so intra-branch races are
      attributable;
    - predicated memory instructions are rewritten into a branch plus an
      unpredicated instruction, so the logging call sits under the same
      guard;
    - with [prune] (the default), intra-basic-block redundant logging is
      eliminated ({!Prune});
    - with [static] (the default), the accesses the kernel's check
      plan drops for the launch [layout] ({!Static.Plan.drops}: the
      ones the static race analysis proves race-free, on a 1-D launch)
      keep the instruction but lose their logging call entirely — the
      same accesses the detector skips unchecked.  Statically-pruned
      accesses are also excluded from block-prune witnessing so the
      two tiers compose soundly.

    Logging calls are modeled as short straight-line sequences of
    ALU/local-memory instructions using reserved [%lg*] registers: they
    reproduce the {e cost} of device-side logging in the simulator
    without touching global or shared state (the actual queue transport
    is modeled by the runtime library).  [origin] maps rewritten
    instruction indices back to the original kernel so the detector can
    keep using the original static roles.

    The pass is the paper's cost model of device-side logging, and it
    runs only where that cost is what is measured: [barracuda profile],
    Figures 9 and 10 and [Gpu_runtime.Session.launch].  A verdict
    depends on the events the detector receives, not on the code that
    logged them, so every verdict path — [check], [stream], repair, the
    campaign and the daemon — executes the kernel it was given. *)

type result = {
  kernel : Ptx.Ast.kernel;  (** the rewritten kernel *)
  origin : int array;  (** rewritten index -> original index; -1 for
                           logging/TID code *)
  logged : bool array;  (** original index -> logging call emitted *)
  stats : Stats.t;
}

val instrument :
  ?prune:bool -> ?static:bool -> layout:Vclock.Layout.t -> Ptx.Ast.kernel ->
  result
