(** Latent-bug hunting by warp-size simulation.

    BARRACUDA checks races "based on the warp size of the current
    architecture, though in future we could simulate the behavior of
    smaller/larger warps to find additional latent bugs" (§3.1).  This
    module is that future work: it re-runs a kernel under several warp
    sizes — keeping the total grid fixed — and reports where the race
    verdict changes.

    A kernel that is clean at warp 32 but racy at warp 16 is {e
    warp-synchronous}: it silently relies on lockstep execution of a
    32-wide warp (the classic unsynchronized warp-level reduction), and
    will break on architectures with different warp widths — exactly
    the "portable CUDA code should eschew assumptions about warp size"
    hazard the paper quotes. *)

type verdict = { warp_size : int; races : int; racy_locations : int }

type result = {
  verdicts : verdict list;  (** one per warp size, ascending *)
  latent : bool;
      (** the race verdict differs across warp sizes: a warp-size
          assumption is baked into the kernel *)
}

val sweep :
  layout:Vclock.Layout.t ->
  setup:(Simt.Machine.t -> int64 array) ->
  Ptx.Ast.kernel ->
  result
(** [sweep ~layout ~setup kernel] checks the kernel through
    {!Session.run_stream}, uninstrumented as [check] runs it, once per
    warp size in [[4; 8; 16; 32]] plus [layout]'s own, over the same
    total grid ([layout] supplies threads-per-block and block count).
    Widths above the block or above a record's
    {!Barracuda.Wire.max_lanes} (32) lanes are left out. *)

val pp : Format.formatter -> result -> unit
