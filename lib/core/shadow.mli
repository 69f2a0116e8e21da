(** Shadow memory: per-location race-detection metadata (§4.3.3, Fig. 8).

    Organized as a two-level page table, as in the paper: pages are
    allocated on demand in response to actual accesses (global memory
    consumption is unknown at launch), and each shadow cell carries the
    last-write epoch (+ atomic bit), last-read epoch or a mutable read
    clock once a location has concurrent readers, and bookkeeping
    flags.  Cells are byte-granular by default; a coarser [granularity]
    (e.g. 4) trades fidelity for speed and is exposed as a benchmark
    ablation.

    A shadow memory has a single owner, the detector that created it
    (see {!Detector.t}), so it carries no locks: where the paper's host
    threads share shadow memory and lock each cell (Fig. 8), sharded
    detection partitions the cells between detectors instead.

    The steady-state lookup path ({!cell}) is allocation-free: a
    one-entry page cache answers repeated hits to the same page, and
    epochs live inline as [(clock, tid)] int pairs rather than boxed
    {!Vclock.Epoch.t} values.  A new page's slots all hold one shared
    placeholder that {!cell} never returns, so a cell is a single heap
    block. *)

type cell = {
  mutable read_clock : int;  (** last-read epoch, [0] = bottom *)
  mutable read_tid : int;
  mutable read_insn : int;
      (** static instruction id of the last recorded read, [-1] if none.
          Once reads inflate to a clock this is the {e latest} reader's
          instruction — an approximation kept so the hot path stays
          allocation-free (no per-thread insn map). *)
  mutable read_vc : Vclock.Cvc.Mut.t option;
      (** used once [read_shared]; owned by the cell, and must be frozen
          if it ever escapes the detector *)
  mutable read_shared : bool;
  mutable write_clock : int;  (** last-write epoch, [0] = bottom *)
  mutable write_tid : int;
  mutable write_insn : int;
      (** static instruction id of the last write, [-1] if none *)
  mutable write_atomic : bool;
  mutable write_value : int64;
  mutable write_record : int;  (** id of the warp instruction that wrote *)
  mutable sync_loc : bool;
}

type t

val create : ?granularity:int -> unit -> t
(** [granularity] is the number of bytes per shadow cell (default 1). *)

val granularity : t -> int

val cell : t -> space:Ptx.Ast.space -> region:int -> index:int -> cell
(** Cell at a granularity-scaled index (i.e. [addr / granularity]),
    allocating page and cell on demand.  Allocation-free on the
    steady-state hit path.  Every call for an untouched location returns
    a fresh cell of its own, never the placeholder that fills new
    pages. *)

val find : t -> Gtrace.Loc.t -> cell
(** Cell covering a location's address. *)

val cells_of_access : t -> Gtrace.Loc.t -> width:int -> (Gtrace.Loc.t * cell) list
(** All cells covered by an access of [width] bytes at the location,
    each paired with the location of the cell's first byte.  Allocates;
    kept for tests and occasional callers — the detector hot path loops
    over {!cell} indices directly. *)

val pages : t -> int
val cells : t -> int

val bytes : t -> int
(** Shadow bytes allocated, at the paper's 32 bytes per cell. *)
