module Mut = Vclock.Cvc.Mut

(* A slot is [stride] consecutive ints of a page array, at these
   offsets.  Epochs are (clock, tid) int pairs, and the 64-bit write
   value is two 32-bit halves, so nothing in a slot is boxed. *)
let f_write_clock = 0 (* last-write epoch, 0 = bottom *)
let f_write_tid = 1
let f_write_insn = 2 (* static insn of the last write, -1 if none *)
let f_write_record = 3 (* id of the warp instruction that wrote, -1 if none *)
let f_value_lo = 4 (* write value, bits 0-31 *)
let f_value_hi = 5 (* write value, bits 32-63 *)
let f_read_clock = 6 (* last-read epoch, 0 = bottom *)
let f_read_tid = 7
let f_read_insn = 8 (* static insn of the last recorded read, -1 if none *)
let f_read_vc = 9 (* side-table index of the read clock, -1 if none *)
let f_flags = 10
let stride = 11

(* [f_flags] bits.  A word slot is untouched (no bit), a summary, or
   split (its bytes live in the page's byte slots); a byte slot is
   live once it holds a cell. *)
let summary_bit = 1
let split_bit = 2
let live_bit = 4
let shared_bit = 8 (* read_shared: reads inflated to the side-table clock *)
let atomic_bit = 16 (* the last write was atomic *)

let page_bits = 8
let page_size = 1 lsl page_bits (* bytes per page, a multiple of 4 *)
let word_slots = page_size / 4

type slot = int

let none = -1

type page = {
  words : int array; (* [word_slots] slots *)
  mutable bytes : int array; (* [page_size] slots from the first split, else [||] *)
}

(* Every slot of a new array reads bottom.  The stores are typed
   [int array], so they compile to plain stores, not [caml_modify]. *)
let fresh_slots n : int array =
  let a = Array.make (n * stride) 0 in
  for s = 0 to n - 1 do
    let o = s * stride in
    Array.unsafe_set a (o + f_write_insn) (-1);
    Array.unsafe_set a (o + f_write_record) (-1);
    Array.unsafe_set a (o + f_read_insn) (-1);
    Array.unsafe_set a (o + f_read_vc) (-1)
  done;
  a

(* [cur] is the array the last handle indexes: a page's word slots
   after {!summary}, its byte slots after {!cell}.  It is stored only
   when it changes, so a run of lookups into one array stores nothing.
   The one-entry page cache lives in the [c_] fields; [c_pidx = min_int]
   matches no page, since [index asr page_bits] never reaches it. *)
type t = {
  pages : (Ptx.Ast.space * int * int, page) Hashtbl.t;
      (* (space, region, page index) -> page *)
  mutable cur : int array;
  mutable vcs : Mut.t array; (* the side table of inflated read clocks *)
  mutable nvcs : int;
  mutable cell_count : int;
  mutable summaries : int;
  mutable byte_arrays : int;
  mutable c_space : Ptx.Ast.space;
  mutable c_region : int;
  mutable c_pidx : int;
  mutable c_page : page;
}

let create () =
  {
    pages = Hashtbl.create 64;
    cur = [||];
    vcs = [||];
    nvcs = 0;
    cell_count = 0;
    summaries = 0;
    byte_arrays = 0;
    c_space = Ptx.Ast.Global;
    c_region = 0;
    c_pidx = min_int;
    c_page = { words = [||]; bytes = [||] };
  }

let page_slow t space region pidx =
  let key = (space, region, pidx) in
  let page =
    match Hashtbl.find_opt t.pages key with
    | Some p -> p
    | None ->
        let p = { words = fresh_slots word_slots; bytes = [||] } in
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

let[@inline] use t (a : int array) = if t.cur != a then t.cur <- a
let[@inline] get t h f = Array.unsafe_get t.cur (h + f)
let[@inline] set t h f v = Array.unsafe_set t.cur (h + f) v

let add_vc t m =
  let n = t.nvcs in
  if n = Array.length t.vcs then begin
    let a = Array.make (Int.max 8 (2 * n)) m in
    Array.blit t.vcs 0 a 0 n;
    t.vcs <- a
  end;
  t.vcs.(n) <- m;
  t.nvcs <- n + 1;
  n

(* Split the summary at word offset [wo] into the four byte slots from
   [bo]: each gets a copy of every field.  Byte 0 takes over the
   summary's read clock, which the summary gives up; bytes 1-3 get
   deep copies of it, so every byte's clock is its own. *)
let split t (words : int array) wo (bytes : int array) bo =
  let wf = Array.unsafe_get words (wo + f_flags) in
  let vc = Array.unsafe_get words (wo + f_read_vc) in
  for b = 0 to 3 do
    let o = bo + (b * stride) in
    for f = 0 to stride - 1 do
      Array.unsafe_set bytes (o + f) (Array.unsafe_get words (wo + f))
    done;
    Array.unsafe_set bytes (o + f_flags)
      (live_bit lor (wf land (shared_bit lor atomic_bit)));
    if vc >= 0 && b > 0 then
      Array.unsafe_set bytes (o + f_read_vc) (add_vc t (Mut.copy t.vcs.(vc)))
  done;
  Array.unsafe_set words (wo + f_read_vc) (-1);
  t.cell_count <- t.cell_count + 3;
  t.summaries <- t.summaries - 1

let summary t ~space ~region ~index =
  let p = page t space region index in
  let words = p.words in
  let wo = (index land (page_size - 1)) lsr 2 * stride in
  let fl = Array.unsafe_get words (wo + f_flags) in
  if fl land split_bit <> 0 then none
  else begin
    if fl land summary_bit = 0 then begin
      Array.unsafe_set words (wo + f_flags) summary_bit;
      t.cell_count <- t.cell_count + 1;
      t.summaries <- t.summaries + 1
    end;
    use t words;
    wo
  end

let cell t ~space ~region ~index =
  let p = page t space region index in
  let words = p.words in
  let slot = index land (page_size - 1) in
  let wo = slot lsr 2 * stride in
  let fl = Array.unsafe_get words (wo + f_flags) in
  if fl land split_bit = 0 then begin
    if Array.length p.bytes = 0 then begin
      p.bytes <- fresh_slots page_size;
      t.byte_arrays <- t.byte_arrays + 1
    end;
    if fl land summary_bit <> 0 then
      split t words wo p.bytes (slot land lnot 3 * stride);
    Array.unsafe_set words (wo + f_flags) split_bit
  end;
  let bytes = p.bytes in
  let bo = slot * stride in
  let bf = Array.unsafe_get bytes (bo + f_flags) in
  if bf land live_bit = 0 then begin
    Array.unsafe_set bytes (bo + f_flags) (bf lor live_bit);
    t.cell_count <- t.cell_count + 1
  end;
  use t bytes;
  bo

let[@inline] write_clock t h = get t h f_write_clock
let[@inline] write_tid t h = get t h f_write_tid
let[@inline] write_insn t h = get t h f_write_insn
let[@inline] write_record t h = get t h f_write_record
let[@inline] write_atomic t h = get t h f_flags land atomic_bit <> 0

let[@inline] same_value t h ~lo ~hi =
  get t h f_value_lo = lo && get t h f_value_hi = hi

let[@inline] read_clock t h = get t h f_read_clock
let[@inline] read_tid t h = get t h f_read_tid
let[@inline] read_insn t h = get t h f_read_insn
let[@inline] read_shared t h = get t h f_flags land shared_bit <> 0
let[@inline] has_read_vc t h = get t h f_read_vc >= 0
let read_vc t h = t.vcs.(get t h f_read_vc)

(* The read clock is cleared, not dropped, so a location that
   oscillates between shared reads and clearing writes settles into a
   no-allocation cycle. *)
let set_write t h ~clock ~tid ~insn ~atomic ~value_lo ~value_hi ~record =
  set t h f_write_clock clock;
  set t h f_write_tid tid;
  set t h f_write_insn insn;
  set t h f_write_record record;
  set t h f_value_lo value_lo;
  set t h f_value_hi value_hi;
  set t h f_read_clock 0;
  set t h f_read_tid 0;
  set t h f_read_insn (-1);
  let fl = get t h f_flags land lnot (atomic_bit lor shared_bit) in
  set t h f_flags (if atomic then fl lor atomic_bit else fl);
  let vc = get t h f_read_vc in
  if vc >= 0 then Mut.clear t.vcs.(vc)

let[@inline] set_read t h ~clock ~tid =
  set t h f_read_clock clock;
  set t h f_read_tid tid

let[@inline] set_read_insn t h insn = set t h f_read_insn insn
let share_reads t h = set t h f_flags (get t h f_flags lor shared_bit)
let set_read_vc t h m = set t h f_read_vc (add_vc t m)

let pages t = Hashtbl.length t.pages
let cells t = t.cell_count
let byte_cells t = t.cell_count + (3 * t.summaries)

(* A block of [n] fields costs a header word more. *)
let array_bytes n = if n = 0 then 0 else (n + 1) * (Sys.word_size / 8)

let bytes t =
  (pages t * array_bytes (word_slots * stride))
  + (t.byte_arrays * array_bytes (page_size * stride))
  + array_bytes (Array.length t.vcs)
