(** Reference race detector: a literal transcription of the paper's
    operational semantics (Figures 2 and 3) over full per-thread vector
    clocks.

    Space- and time-naive by design — [O(threads)] clocks, no PTVC
    compression — it exists as the semantic gold standard: the optimized
    {!Detector} must report the same races on the same trace, which the
    test suite checks on small grids, including with randomized
    (QuickCheck) kernels.

    Consumes the abstract trace operations of {!Gtrace.Op}. *)

type t

val create :
  ?max_reports:int ->
  ?filter_same_value:bool ->
  layout:Vclock.Layout.t ->
  unit ->
  t
(** [filter_same_value] (default [true]) suppresses intra-warp
    write-write conflicts within one instruction when every lane stored
    the same value, which the CUDA documentation defines as
    well-behaved (§3.3.1). *)

val step : t -> Gtrace.Op.t -> unit
val run : t -> Gtrace.Op.t list -> unit
val report : t -> Report.t

val invariant_holds : t -> bool
(** The key invariant of the correctness proof (§3.4): each thread's
    own timestamp strictly dominates every other component's timestamp
    for it — [C_u(t) < C_t(t)] for [u <> t], and [R_x(t)], [W_x(t)],
    [S_x[b](t)] are all [<= C_t(t)].  Checked over every thread of the
    grid and every tracked location; the property tests assert it holds
    after every step of every trace. *)
