(** Shadow memory: per-location race-detection metadata (§4.3.3, Fig. 8).

    Organized as a two-level page table, as in the paper: pages are
    allocated on demand in response to actual accesses (global memory
    consumption is unknown at launch), and each shadow cell carries the
    last-write epoch (+ atomic bit), last-read epoch or a mutable read
    clock once a location has concurrent readers, and the write's
    value and record for the same-value filter.

    The shadow is byte-granular, as in the paper, but losslessly so
    rather than cell-per-byte.  §4.3.3 remarks that it could be
    "substantially decreased if all GPU memory accesses are 2- or
    4-byte aligned"; here that is the default path:
    - a {e word summary} ({!summary}) is one cell standing for the four
      bytes of a 4-aligned word.  It is created only for a word none of
      whose byte slots holds a cell yet, so its four bytes start, and
      (as long as only whole-word accesses reach it) stay, in the same
      state;
    - the first byte-level lookup of a summarized word ({!cell})
      splits it into four byte cells, each a copy of every field with
      a read clock of its own, and the word then stays split.

    A summary is thus bitwise the state the four byte cells would
    hold, and a caller checking it once per word, reporting each race
    once per byte, reproduces the byte shadow exactly.

    A shadow memory has a single owner, the detector that created it
    (see {!Detector.t}), so it carries no locks: where the paper's host
    threads share shadow memory and lock each cell (Fig. 8), sharded
    detection partitions the cells between detectors instead.

    The steady-state lookup paths are allocation-free: a one-entry
    page cache answers repeated hits to the same page, and epochs live
    inline as [(clock, tid)] int pairs rather than boxed
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
  summary : bool;
      (** a word summary, standing for the four bytes of its word *)
}

type t

val create : unit -> t

val cell : t -> space:Ptx.Ast.space -> region:int -> index:int -> cell
(** The byte cell at byte [index], allocating page and cell on demand;
    if [index]'s word is summarized, the summary is split first.
    Allocation-free on the steady-state hit path.  Every call for an
    untouched location returns a fresh cell of its own, never the
    placeholder that fills new pages, and never a summary. *)

val summary : t -> space:Ptx.Ast.space -> region:int -> index:int -> cell
(** [summary t ~space ~region ~index], for a 4-aligned byte [index]:
    the word summary standing for bytes [index .. index + 3], created
    if none of the four byte slots holds a cell yet.  If the word
    already has byte cells, the result's [summary] is [false]: the
    caller must then go through {!cell} byte by byte and must not
    write the result. *)

val pages : t -> int

val cells : t -> int
(** Cells held: a word summary counts once, as does each byte cell. *)

val byte_cells : t -> int
(** Byte cells the held cells stand for (four per summary, one per
    byte cell): the cell count of a cell-per-byte shadow. *)

val bytes : t -> int
(** Shadow bytes held, at the paper's 32 bytes per cell; a summary
    costs one cell for its word's four bytes. *)
