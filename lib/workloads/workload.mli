(** Workload descriptors: the synthetic counterparts of the paper's
    26 evaluation benchmarks (Table 1).

    Each workload carries the kernel, a scaled-down grid, a memory
    setup function, the races we seeded (matching the paper's "races
    found" column in kind and count), and the paper's reported numbers
    for side-by-side reporting in EXPERIMENTS.md.  Grids are scaled so a
    workload simulates in well under a second; the scale factor vs the
    paper's thread counts is part of the Table 1 output. *)

type expected =
  | Race_free
  | Shared_races of int  (** distinct racy shared-memory locations *)
  | Global_races of int  (** distinct racy global-memory locations *)

type paper_row = {
  p_static_insns : int;
  p_total_threads : int;
  p_global_mem_mb : int;
  p_races : string;  (** Table 1 column 5, verbatim *)
}

type t = {
  name : string;
  suite : string;  (** Rodinia / SHOC / GPU-TM / CUDA SDK / CUB *)
  layout : Vclock.Layout.t;
  kernel : Ptx.Ast.kernel;
  setup : Simt.Machine.t -> int64 array;
      (** allocate + initialize device memory; returns launch args *)
  expected : expected;
  paper : paper_row;
}

val machine : t -> Simt.Machine.t
(** Fresh machine with the workload's layout. *)

val run_native : ?max_steps:int -> t -> Simt.Machine.result
(** Launch the original kernel with no instrumentation or logging. *)

val run :
  ?max_steps:int ->
  ?inst:Instrument.Pass.result ->
  t ->
  Gpu_runtime.Session.stream_result
(** Race-check the workload on a fresh machine through
    [Session.run_stream].  Without [inst] the original kernel runs
    uninstrumented, as [barracuda check] runs it (Table 1); with it,
    the instrumented build runs, e.g. the deployed block + static
    pruning that Figure 10 times. *)

val racy_word_counts : Barracuda.Report.t -> int * int
(** Distinct racy (shared, global) locations at 4-byte granularity. *)

val races_match : t -> Barracuda.Report.t -> bool
(** Does the report match the workload's expected races (same memory
    space, at least the expected number of distinct racy locations, and
    none anywhere else)? *)

val total_threads : t -> int
val pp_expected : Format.formatter -> expected -> unit
