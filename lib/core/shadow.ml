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
  mutable sync_loc : bool;
}
(* Epochs are stored inline as (clock, tid) int pairs — building an
   [Epoch.t] per access was a hot-path allocation.  [read_vc] is a
   detector-owned mutable clock; once a cell has been inflated the
   table is kept (cleared, not dropped) so re-inflation after a
   clearing write does not allocate. *)

let page_bits = 10
let page_size = 1 lsl page_bits (* cells per page *)

type page = cell array

let fresh_cell () =
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
    sync_loc = false;
  }

(* Fills every slot of a new page.  [cell] replaces it by a fresh cell
   before returning, so it is never handed out and never written. *)
let empty = fresh_cell ()

(* The one-entry page cache lives in the last four fields, so the
   steady-state lookup compares three immediates and indexes the page.
   [c_pidx = min_int] matches no page: [index asr page_bits] never
   reaches it. *)
type t = {
  granularity : int;
  pages : (Ptx.Ast.space * int * int, page) Hashtbl.t;
      (* (space, region, page index) -> page *)
  mutable cell_count : int;
  mutable c_space : Ptx.Ast.space;
  mutable c_region : int;
  mutable c_pidx : int;
  mutable c_page : page;
}

let create ?(granularity = 1) () =
  if granularity <> 1 && granularity <> 2 && granularity <> 4 && granularity <> 8
  then invalid_arg "Shadow.create: granularity must be 1, 2, 4 or 8";
  {
    granularity;
    pages = Hashtbl.create 64;
    cell_count = 0;
    c_space = Ptx.Ast.Global;
    c_region = 0;
    c_pidx = min_int;
    c_page = [||];
  }

let granularity t = t.granularity

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

let cell_slow t page slot =
  let c = fresh_cell () in
  page.(slot) <- c;
  t.cell_count <- t.cell_count + 1;
  c

(* [asr] and [land] rather than [/] and [mod]: floor division keeps a
   negative index's slot inside its page. *)
let cell t ~space ~region ~index =
  let pidx = index asr page_bits in
  let page =
    (* [==] on the space: constant constructors are immediates, so
       physical equality is value equality without a polymorphic-compare
       call. *)
    if pidx = t.c_pidx && region = t.c_region && space == t.c_space then
      t.c_page
    else page_slow t space region pidx
  in
  let slot = index land (page_size - 1) in
  let c = Array.unsafe_get page slot in
  if c != empty then c else cell_slow t page slot

let find t (loc : Gtrace.Loc.t) =
  cell t ~space:loc.Gtrace.Loc.space ~region:loc.Gtrace.Loc.region
    ~index:(loc.Gtrace.Loc.addr / t.granularity)

let cells_of_access t (loc : Gtrace.Loc.t) ~width =
  let first = loc.Gtrace.Loc.addr / t.granularity in
  let last = (loc.Gtrace.Loc.addr + width - 1) / t.granularity in
  List.init (last - first + 1) (fun i ->
      let index = first + i in
      ( Gtrace.Loc.with_addr loc (index * t.granularity),
        cell t ~space:loc.Gtrace.Loc.space ~region:loc.Gtrace.Loc.region ~index
      ))

let pages t = Hashtbl.length t.pages
let cells t = t.cell_count
let bytes t = 32 * t.cell_count
