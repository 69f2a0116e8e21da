type cell = {
  mutable read_clock : int;
  mutable read_tid : int;
  mutable read_insn : int; (* static insn of the last recorded read, -1 if none *)
  mutable read_vc : Vclock.Cvc.Mut.t option;
  mutable read_shared : bool;
  mutable write_clock : int;
  mutable write_tid : int;
  mutable write_insn : int; (* static insn of the last write, -1 if none *)
  mutable write_atomic : bool;
  mutable write_value : int64;
  mutable write_record : int;
  summary : bool;
}
(* Epochs are stored inline as (clock, tid) int pairs — building an
   [Epoch.t] per access was a hot-path allocation.  [read_vc] is a
   detector-owned mutable clock; once a cell has been inflated the
   table is kept (cleared, not dropped) so re-inflation after a
   clearing write does not allocate. *)

let page_bits = 10
let page_size = 1 lsl page_bits (* byte slots per page, a multiple of 4 *)

type page = cell array

let fresh_cell summary =
  {
    read_clock = 0;
    read_tid = 0;
    read_insn = -1;
    read_vc = None;
    read_shared = false;
    write_clock = 0;
    write_tid = 0;
    write_insn = -1;
    write_atomic = false;
    write_value = 0L;
    write_record = -1;
    summary;
  }

(* Fills every slot of a new page.  [cell] replaces it by a fresh cell
   before returning, so it is never handed out to be written; [summary]
   returns it, unwritten, to say "go byte by byte". *)
let empty = fresh_cell false

(* The one-entry page cache lives in the last four fields, so the
   steady-state lookup compares three immediates and indexes the page.
   [c_pidx = min_int] matches no page: [index asr page_bits] never
   reaches it. *)
type t = {
  pages : (Ptx.Ast.space * int * int, page) Hashtbl.t;
      (* (space, region, page index) -> page *)
  mutable cell_count : int;
  mutable summaries : int;
  mutable c_space : Ptx.Ast.space;
  mutable c_region : int;
  mutable c_pidx : int;
  mutable c_page : page;
}

let create () =
  {
    pages = Hashtbl.create 64;
    cell_count = 0;
    summaries = 0;
    c_space = Ptx.Ast.Global;
    c_region = 0;
    c_pidx = min_int;
    c_page = [||];
  }

let page_slow t space region pidx =
  let key = (space, region, pidx) in
  let page =
    match Hashtbl.find_opt t.pages key with
    | Some p -> p
    | None ->
        let p = Array.make page_size empty in
        Hashtbl.add t.pages key p;
        p
  in
  t.c_space <- space;
  t.c_region <- region;
  t.c_pidx <- pidx;
  t.c_page <- page;
  page

(* [asr] and [land] rather than [/] and [mod]: floor division keeps a
   negative index's slot inside its page. *)
let[@inline] page t space region index =
  let pidx = index asr page_bits in
  (* [==] on the space: constant constructors are immediates, so
     physical equality is value equality without a polymorphic-compare
     call. *)
  if pidx = t.c_pidx && region = t.c_region && space == t.c_space then
    t.c_page
  else page_slow t space region pidx

let cell_slow t page slot =
  let c = fresh_cell false in
  page.(slot) <- c;
  t.cell_count <- t.cell_count + 1;
  c

(* A summary stands in all four slots of its word.  Splitting gives
   each byte a copy of every field, with a read clock of its own. *)
let split t page slot (s : cell) =
  let first = slot land lnot 3 in
  for b = first to first + 3 do
    page.(b) <-
      {
        s with
        read_vc = Option.map Vclock.Cvc.Mut.copy s.read_vc;
        summary = false;
      }
  done;
  t.cell_count <- t.cell_count + 3;
  t.summaries <- t.summaries - 1;
  page.(slot)

let cell t ~space ~region ~index =
  let page = page t space region index in
  let slot = index land (page_size - 1) in
  let c = Array.unsafe_get page slot in
  if c == empty then cell_slow t page slot
  else if c.summary then split t page slot c
  else c

let summary t ~space ~region ~index =
  let page = page t space region index in
  let slot = index land (page_size - 1) in
  let c = Array.unsafe_get page slot in
  if
    c == empty
    && Array.unsafe_get page (slot + 1) == empty
    && Array.unsafe_get page (slot + 2) == empty
    && Array.unsafe_get page (slot + 3) == empty
  then begin
    let s = fresh_cell true in
    Array.fill page slot 4 s;
    t.cell_count <- t.cell_count + 1;
    t.summaries <- t.summaries + 1;
    s
  end
  else c

let pages t = Hashtbl.length t.pages
let cells t = t.cell_count
let byte_cells t = t.cell_count + (3 * t.summaries)
let bytes t = 32 * t.cell_count
