module Layout = Vclock.Layout
module Cvc = Vclock.Cvc
module Mut = Vclock.Cvc.Mut
module Loc = Gtrace.Loc
module Op = Gtrace.Op

(* Submodules, not units of their own, so that the per-lane path's
   calls into them are direct and inline (see detector.mli). *)
module Shadow = struct
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
end

module Warp_clocks = struct
  type frame = {
    mutable mask : int; (* lanes active on this path *)
    mutable local : int; (* mutual clock of the active lanes *)
    sib : int array; (* per-lane view: [local] for active, frozen otherwise *)
  }

  (* Overlays are mutable clocks under copy-on-write ownership:
     [owned.(l)] means lane [l] holds the only reference to
     [overlay.(l)] and may mutate it in place; a join point installs one
     union clock into every active lane as a shared (unowned) value, and
     an acquire on an unowned overlay copies before raising.  Nothing
     here escapes the warp unfrozen: [materialize] and [overlay_union]
     return persistent snapshots. *)
  type t = {
    layout : Layout.t;
    ws : int;
    first_tid : int;
    block : int;
    block_lo : int; (* the block's tids are [block_lo, block_hi) *)
    block_hi : int;
    own : int array; (* own clock per lane *)
    overlay : Mut.t option array; (* per-lane acquire-derived entries *)
    owned : bool array; (* copy-on-write flag per lane *)
    mutable overlays : int; (* lanes whose overlay is [Some _] *)
    mutable block_clock : int;
    mutable stack : frame list; (* top first; never empty *)
  }

  type format = Converged | Diverged | Nested_diverged | Sparse_vc

  (* Initial state: each thread at clock 0 with own entry 1 (C_t = inc_t ⊥). *)
  let create layout ~warp =
    let ws = layout.Layout.warp_size in
    let mask = Layout.full_mask layout ~warp in
    let block = Layout.block_of_warp layout warp in
    let block_lo = Layout.first_tid_of_block layout block in
    {
      layout;
      ws;
      first_tid = Layout.tid_of_warp_lane layout ~warp ~lane:0;
      block;
      block_lo;
      block_hi = block_lo + layout.Layout.threads_per_block;
      own = Array.make ws 1;
      overlay = Array.make ws None;
      owned = Array.make ws false;
      overlays = 0;
      block_clock = 0;
      stack = [ { mask; local = 0; sib = Array.make ws 0 } ];
    }

  let block t = t.block
  let first_tid t = t.first_tid

  let[@inline] top t =
    match t.stack with f :: _ -> f | [] -> assert false

  let active_mask t = (top t).mask
  let depth t = List.length t.stack
  let own_clock t ~lane = t.own.(lane)

  let epoch t ~lane =
    Vclock.Epoch.make ~clock:t.own.(lane) ~tid:(t.first_tid + lane)

  let[@inline] base_entry t ~lane ~tid =
    if tid >= t.first_tid && tid < t.first_tid + t.ws then
      let u = tid - t.first_tid in
      if u = lane then t.own.(lane) else Int.max (top t).sib.(u) t.block_clock
    else if tid >= t.block_lo && tid < t.block_hi then t.block_clock
    else 0

  let[@inline] entry t ~lane ~tid =
    let base = base_entry t ~lane ~tid in
    match t.overlay.(lane) with
    | None -> base
    | Some o -> Int.max base (Mut.get o tid)

  (* Union of [mask]'s lane overlays as a value to be shared (unowned) by
     those lanes.  When every active lane already aliases the same clock
     (the common case after a previous join point) that clock is returned
     as-is — no allocation; only genuinely distinct overlays force a
     copy-and-merge. *)
  (* The scans below are top-level recursions over lane indices rather
     than local refs: the common converged case (no overlays) must not
     allocate, and the stock compiler boxes local refs. *)
  let rec first_overlay_lane overlay mask ws l =
    if l >= ws then -1
    else if
      mask land (1 lsl l) <> 0
      && match Array.unsafe_get overlay l with Some _ -> true | None -> false
    then l
    else first_overlay_lane overlay mask ws (l + 1)

  let rec overlays_mixed overlay mask ws f l =
    if l >= ws then false
    else
      (mask land (1 lsl l) <> 0
      && match Array.unsafe_get overlay l with Some o -> o != f | None -> false)
      || overlays_mixed overlay mask ws f (l + 1)

  let overlay_union_mut t mask =
    let fi = first_overlay_lane t.overlay mask t.ws 0 in
    if fi < 0 then None
    else
      let f =
        match t.overlay.(fi) with Some f -> f | None -> assert false
      in
      if not (overlays_mixed t.overlay mask t.ws f (fi + 1)) then
        (* every active overlay aliases [f]: return the existing option
           cell as-is — no allocation *)
        t.overlay.(fi)
      else begin
        let u = Mut.copy f in
        for l = 0 to t.ws - 1 do
          if mask land (1 lsl l) <> 0 then
            match t.overlay.(l) with
            | Some o when o != f -> Mut.merge_into o ~into:u
            | _ -> ()
        done;
        Some u
      end

  let overlay_union t =
    match overlay_union_mut t (active_mask t) with
    | None -> None
    | Some m -> Some (Mut.freeze m)

  let count_overlays t =
    t.overlays <-
      Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0
        t.overlay

  (* Renormalizing join-and-fork over [mask]'s lanes within the top frame:
     new shared clock = max own; every lane's own moves one past it.  A
     warp with no overlay has none to share, so it leaves the overlay and
     ownership slots alone (ownership is only read beside an overlay).
     [own] and [sib] have [ws] slots, so the lane loops index them
     unchecked. *)
  let join_fork t ~mask =
    if mask <> 0 then begin
      let f = top t in
      let own = t.own and sib = f.sib in
      let m = ref 0 in
      for l = 0 to t.ws - 1 do
        let o = Array.unsafe_get own l in
        if mask land (1 lsl l) <> 0 && o > !m then m := o
      done;
      let m = !m in
      f.local <- m;
      let shared = if t.overlays > 0 then overlay_union_mut t mask else None in
      for l = 0 to t.ws - 1 do
        if mask land (1 lsl l) <> 0 then begin
          Array.unsafe_set sib l m;
          Array.unsafe_set own l (m + 1);
          if t.overlays > 0 then begin
            t.overlay.(l) <- shared;
            t.owned.(l) <- false
          end
        end
      done;
      if t.overlays > 0 then count_overlays t
    end

  let push_if t ~then_mask ~else_mask =
    let f = top t in
    (* The else path snapshots the pre-branch view; it activates later. *)
    let else_frame = { mask = else_mask; local = f.local; sib = Array.copy f.sib } in
    let then_frame = { mask = then_mask; local = f.local; sib = Array.copy f.sib } in
    t.stack <- then_frame :: else_frame :: t.stack;
    join_fork t ~mask:then_mask

  let path_depth t = List.length t.stack

  let pop_path t ~mask =
    (match t.stack with
    | _ :: (_ :: _ as rest) -> t.stack <- rest
    | [ _ ] | [] -> invalid_arg "Warp_clocks.pop_path: nothing to pop");
    let f = top t in
    f.mask <- mask;
    join_fork t ~mask

  let acquire t ~lane cvc =
    match t.overlay.(lane) with
    | None ->
        t.overlay.(lane) <- Some (Mut.thaw cvc);
        t.owned.(lane) <- true;
        t.overlays <- t.overlays + 1
    | Some o ->
        let o =
          if t.owned.(lane) then o
          else begin
            (* copy-on-write: the overlay is shared with other lanes *)
            let c = Mut.copy o in
            t.overlay.(lane) <- Some c;
            t.owned.(lane) <- true;
            c
          end
        in
        Mut.join_into cvc o

  let release_increment t ~lane = t.own.(lane) <- t.own.(lane) + 1

  let materialize t ~lane =
    let base = Cvc.bottom t.layout in
    let v = Cvc.raise_block base t.block t.block_clock in
    let f = top t in
    let v = ref v in
    for u = 0 to t.ws - 1 do
      let tid = t.first_tid + u in
      let c = if u = lane then t.own.(lane) else f.sib.(u) in
      v := Cvc.set_point !v tid c
    done;
    match t.overlay.(lane) with
    | None -> !v
    | Some o -> Cvc.join !v (Mut.freeze o)

  let to_vector_clock t ~lane =
    let acc = ref Vclock.Vector_clock.bottom in
    for tid = 0 to Layout.total_threads t.layout - 1 do
      let c = entry t ~lane ~tid in
      if c > 0 then acc := Vclock.Vector_clock.set !acc tid c
    done;
    !acc

  let max_own t = Array.fold_left Int.max 0 t.own

  let block_clock t = t.block_clock

  let apply_barrier t ~clock ~overlay =
    (* Thaw the block-wide overlay once and share it (unowned) across
       the live lanes; an acquire will copy before mutating it. *)
    let shared = match overlay with None -> None | Some o -> Some (Mut.thaw o) in
    let f = top t in
    let live = f.mask in
    for u = 0 to t.ws - 1 do
      if live land (1 lsl u) <> 0 then begin
        f.sib.(u) <- clock;
        t.own.(u) <- clock + 1;
        t.overlay.(u) <- shared;
        t.owned.(u) <- false
      end
      else
        (* lanes that retired (or never existed): freeze at their final
           own clock so their past accesses stay ordered by the barrier *)
        f.sib.(u) <- Int.max f.sib.(u) t.own.(u)
    done;
    count_overlays t;
    f.local <- clock;
    t.block_clock <- clock

  (* Whether the frozen (inactive) sib entries of a frame are absent or
     all one scalar — the paper's DIVERGED vs NESTEDDIVERGED split. *)
  let frozen_uniform ws (f : frame) =
    let v = ref min_int in
    let uniform = ref true in
    for u = 0 to ws - 1 do
      if f.mask land (1 lsl u) = 0 then
        if !v = min_int then v := f.sib.(u)
        else if f.sib.(u) <> !v then uniform := false
    done;
    !uniform

  let format_of t =
    let f = top t in
    if t.overlays > 0 && first_overlay_lane t.overlay f.mask t.ws 0 >= 0 then
      Sparse_vc
    else
      match t.stack with
      | [ _ ] -> Converged
      | _ -> if frozen_uniform t.ws f then Diverged else Nested_diverged

  let footprint_bytes t =
    (* Mirror the paper's 16-byte stack entries: CONVERGED/DIVERGED frames
       are scalar-only; NESTEDDIVERGED carries a warp-sized clock vector;
       overlays pay for what they store. *)
    let frame_bytes f =
      if frozen_uniform t.ws f then 16 else 16 + (4 * t.ws)
    in
    let overlays =
      Array.fold_left
        (fun acc o -> match o with None -> acc | Some o -> acc + (12 * Mut.footprint o))
        0 t.overlay
    in
    List.fold_left (fun acc f -> acc + frame_bytes f) 0 t.stack
    + (4 * t.ws) (* own clocks *) + overlays

  let pp_format ppf = function
    | Converged -> Format.pp_print_string ppf "CONVERGED"
    | Diverged -> Format.pp_print_string ppf "DIVERGED"
    | Nested_diverged -> Format.pp_print_string ppf "NESTEDDIVERGED"
    | Sparse_vc -> Format.pp_print_string ppf "SPARSEVC"
end

(* Detection telemetry: live totals across all detector instances.
   [checks] counts thread-level access checks; the epoch/vc pair
   splits ordering comparisons into the epoch fast path versus full
   vector-clock scans (the compression the paper's §4.3.1 is about);
   [races] counts raw race observations before report deduplication.
   A detector counts these in its own fields and publishes them once
   per record ([publish]). *)
let m_checks =
  Telemetry.Registry.counter
    ~help:"Thread-level access checks performed"
    Telemetry.Registry.default "barracuda_detector_checks_total"

let m_records =
  Telemetry.Registry.counter
    ~help:"Warp-level records processed by the detector"
    Telemetry.Registry.default "barracuda_detector_records_total"

let m_races =
  Telemetry.Registry.counter
    ~help:"Race observations (before report deduplication)"
    Telemetry.Registry.default "barracuda_detector_races_total"

let m_epoch_fast =
  Telemetry.Registry.counter
    ~help:"Ordering checks answered by the epoch fast path"
    Telemetry.Registry.default "barracuda_detector_epoch_fast_total"

let m_vc_full =
  Telemetry.Registry.counter
    ~help:"Ordering checks requiring a full vector-clock scan"
    Telemetry.Registry.default "barracuda_detector_vc_full_total"

let m_planned_out =
  Telemetry.Registry.counter
    ~help:"Access records skipped because the check plan proves them safe"
    Telemetry.Registry.default "barracuda_detector_planned_out_total"

let sp_feed_record = Telemetry.Span.create "detector.feed_record"

(* Transport-integrity accounting: anomalies the in-place feed path
   absorbed instead of crashing or silently mis-detecting. *)
let m_int_corrupt =
  Telemetry.Registry.counter
    ~help:"Wire records failing magic/version/checksum validation"
    Telemetry.Registry.default "barracuda_transport_integrity_corrupt_total"

let m_int_gap =
  Telemetry.Registry.counter
    ~help:"Records lost between consecutive producer sequence numbers"
    Telemetry.Registry.default "barracuda_transport_integrity_gap_total"

let m_int_stale =
  Telemetry.Registry.counter
    ~help:"Duplicate or out-of-date wire records skipped"
    Telemetry.Registry.default "barracuda_transport_integrity_stale_total"

let m_int_desync =
  Telemetry.Registry.counter
    ~help:"Branch else/fi records orphaned by an upstream loss, skipped"
    Telemetry.Registry.default "barracuda_transport_integrity_desync_total"

type config = { max_reports : int; filter_same_value : bool }

let default_config = { max_reports = 1000; filter_same_value = true }

type stats = {
  accesses_checked : int;
  records_processed : int;
  planned_out : int;
  ptvc_converged : int;
  ptvc_diverged : int;
  ptvc_nested : int;
  ptvc_sparse : int;
  shadow_pages : int;
  shadow_cells : int;
  shadow_byte_cells : int;
  shadow_bytes : int;
  sync_locations : int;
  ptvc_bytes : int;
  full_vc_bytes : int;
}

(* A detector has one owner at a time (see the contract in
   detector.mli), so its counters are plain ints and its shadow cells,
   report and sync map take no locks.  The paper's host threads share
   shadow memory and lock each cell (§4.3, Fig. 8); here sharded
   detection partitions the cells between detectors instead ([owns]). *)
type t = {
  layout : Layout.t;
  config : config;
  roles : Gtrace.Roles.t array;
  drop : bool array; (* the plan's drop bits for this launch *)
  warps : Warp_clocks.t array;
  shadow : Shadow.t;
  sync : Sync_loc.t;
  report : Report.t;
  mutable record_id : int; (* unique id per processed record *)
  (* The access record being checked, set once per record ([record_id]
     is its id): *)
  mutable wc : Warp_clocks.t;
  mutable insn : int;
  mutable space : Ptx.Ast.space;
  mutable region : int;
  mutable kind : Report.access_kind;
  mutable accesses : int; (* checks *)
  mutable records : int;
  mutable planned_out : int; (* access records the plan skipped *)
  mutable published_checks : int; (* [accesses] at the last [publish] *)
  mutable published_planned_out : int;
  mutable epoch_fast : int; (* these three: since the last [publish] *)
  mutable vc_full : int;
  mutable races : int;
  addrs : int array; (* the access record's lanes, decoded once *)
  value_lo : int array; (* store and atomic values, as 32-bit halves *)
  value_hi : int array;
  census : int array; (* converged/diverged/nested/sparse *)
  mutable seq_next : int; (* the producer's expected sequence number *)
  owns : (Ptx.Ast.space -> int -> int -> bool) option;
      (* shadow-cell ownership predicate for sharded detection: when
         present, only cells it accepts are checked (and their pages
         materialized).  Warp clocks and sync state still evolve over
         the full record stream, so a sharded detector's clock state is
         bit-identical to an unsharded one. *)
}

let create ?(config = default_config) ?owns ~layout plan =
  if layout.Layout.warp_size > Wire.max_lanes then
    invalid_arg
      (Printf.sprintf
         "Detector.create: warp size %d exceeds the %d lanes of a wire record"
         layout.Layout.warp_size Wire.max_lanes);
  let warps =
    Array.init (Layout.total_warps layout) (fun warp ->
        Warp_clocks.create layout ~warp)
  in
  {
    layout;
    config;
    owns;
    roles = Static.Plan.roles plan;
    drop = Static.Plan.drops plan ~layout;
    warps;
    shadow = Shadow.create ();
    sync = Sync_loc.create layout;
    report = Report.create ~max_reports:config.max_reports ~layout ();
    record_id = 0;
    wc = warps.(0);
    insn = 0;
    space = Ptx.Ast.Global;
    region = 0;
    kind = Report.Read;
    accesses = 0;
    records = 0;
    planned_out = 0;
    published_checks = 0;
    published_planned_out = 0;
    epoch_fast = 0;
    vc_full = 0;
    races = 0;
    addrs = Array.make Wire.max_lanes 0;
    value_lo = Array.make Wire.max_lanes 0;
    value_hi = Array.make Wire.max_lanes 0;
    census = Array.make 4 0;
    seq_next = 0;
  }

let report t = t.report

(* [c@u <= C_lane?] via the compressed clock layers. *)
let epoch_ordered t ~lane ~clock ~tid =
  t.epoch_fast <- t.epoch_fast + 1;
  clock <= Warp_clocks.entry t.wc ~lane ~tid

(* Does the last write race with the current access?  Not if it is
   ordered before it, or if the same warp instruction wrote the same
   value non-atomically (the same-value filter, §3.3.1).  A write's
   value is lane [lane]'s in the decoded record. *)
let write_races t ~lane cell =
  let s = t.shadow in
  (not
     (epoch_ordered t ~lane ~clock:(Shadow.write_clock s cell)
        ~tid:(Shadow.write_tid s cell)))
  && not
       (t.config.filter_same_value
       && Shadow.write_record s cell = t.record_id
       && t.kind = Report.Write
       && (not (Shadow.write_atomic s cell))
       && Shadow.same_value s cell
            ~lo:(Array.unsafe_get t.value_lo lane)
            ~hi:(Array.unsafe_get t.value_hi lane))

exception Unordered_read

(* Does a recorded read race with the current access?  An inflated
   read clock costs one full scan, stopped at the first racing
   reader. *)
let reads_race t ~lane cell =
  let s = t.shadow and wc = t.wc in
  if Shadow.read_shared s cell then begin
    t.vc_full <- t.vc_full + 1;
    try
      Mut.iter_points
        (fun u cu ->
          if cu > Warp_clocks.entry wc ~lane ~tid:u then
            raise_notrace Unordered_read)
        (Shadow.read_vc s cell);
      false
    with Unordered_read -> true
  end
  else
    not
      (epoch_ordered t ~lane ~clock:(Shadow.read_clock s cell)
         ~tid:(Shadow.read_tid s cell))

(* Report the races found on [cell] at each of the [n] bytes from
   [index] it stands for, in the byte shadow's order: per byte,
   ascending, the write race and then the read races. *)
let report_races t ~lane ~index ~n ~wrace ~rrace cell =
  let s = t.shadow and wc = t.wc in
  let cur_tid = Warp_clocks.first_tid wc + lane in
  for addr = index to index + n - 1 do
    let loc = Loc.make ~space:t.space ~region:t.region ~addr in
    let race ~prev_insn ~prev_tid ~prev_kind ~same_instruction =
      t.races <- t.races + 1;
      Report.add_race t.report ~prev_insn ~cur_insn:t.insn ~loc ~prev_tid
        ~prev_kind ~cur_tid ~cur_kind:t.kind ~same_instruction
    in
    if wrace then
      race ~prev_insn:(Shadow.write_insn s cell)
        ~prev_tid:(Shadow.write_tid s cell)
        ~prev_kind:
          (if Shadow.write_atomic s cell then Report.Atomic_rmw
           else Report.Write)
        ~same_instruction:(Shadow.write_record s cell = t.record_id);
    if rrace then
      if Shadow.read_shared s cell then
        Mut.iter_points
          (fun u cu ->
            if cu > Warp_clocks.entry wc ~lane ~tid:u then
              (* [read_insn] is the latest reader's instruction, not
                 necessarily thread [u]'s — a deliberate approximation
                 (see {!Shadow.read_insn}). *)
              race ~prev_insn:(Shadow.read_insn s cell) ~prev_tid:u
                ~prev_kind:Report.Read ~same_instruction:false)
          (Shadow.read_vc s cell)
      else
        race ~prev_insn:(Shadow.read_insn s cell)
          ~prev_tid:(Shadow.read_tid s cell) ~prev_kind:Report.Read
          ~same_instruction:false
  done

(* One check of an access against [cell], which stands for the [n]
   bytes from [index] (4 for a word summary, 1 for a byte cell):
   against the last write if [write], against the recorded reads if
   [reads]. *)
let check t ~lane ~index ~n ~write ~reads cell =
  t.accesses <- t.accesses + 1;
  let wrace = write && write_races t ~lane cell in
  let rrace = reads && reads_race t ~lane cell in
  if wrace || rrace then report_races t ~lane ~index ~n ~wrace ~rrace cell

let do_read t ~lane ~index ~n cell =
  check t ~lane ~index ~n ~write:true ~reads:false cell;
  let s = t.shadow in
  let tid = Warp_clocks.first_tid t.wc + lane in
  let own = Warp_clocks.own_clock t.wc ~lane in
  Shadow.set_read_insn s cell t.insn;
  if Shadow.read_shared s cell then
    (* ReadShared *)
    Mut.raise_point (Shadow.read_vc s cell) tid own
  else if
    epoch_ordered t ~lane ~clock:(Shadow.read_clock s cell)
      ~tid:(Shadow.read_tid s cell)
  then
    (* ReadExcl *)
    Shadow.set_read s cell ~clock:own ~tid
  else begin
    (* ReadInflate: first concurrent read *)
    let m =
      if Shadow.has_read_vc s cell then Shadow.read_vc s cell
      else begin
        let m = Mut.create t.layout in
        Shadow.set_read_vc s cell m;
        m
      end
    in
    Mut.raise_point m (Shadow.read_tid s cell) (Shadow.read_clock s cell);
    Mut.raise_point m tid own;
    Shadow.share_reads s cell
  end

let set_write t ~lane ~atomic cell =
  Shadow.set_write t.shadow cell
    ~clock:(Warp_clocks.own_clock t.wc ~lane)
    ~tid:(Warp_clocks.first_tid t.wc + lane)
    ~insn:t.insn ~atomic
    ~value_lo:(Array.unsafe_get t.value_lo lane)
    ~value_hi:(Array.unsafe_get t.value_hi lane)
    ~record:t.record_id

(* One data access of the record's kind against [cell]. *)
let do_cell t ~lane ~index ~n cell =
  match t.kind with
  | Report.Read -> do_read t ~lane ~index ~n cell
  | Report.Write ->
      check t ~lane ~index ~n ~write:true ~reads:true cell;
      set_write t ~lane ~atomic:false cell
  | Report.Atomic_rmw ->
      check t ~lane ~index ~n
        ~write:(not (Shadow.write_atomic t.shadow cell))
        ~reads:true cell;
      set_write t ~lane ~atomic:true cell

let do_acquire t ~lane ~loc scope =
  let block = Warp_clocks.block t.wc in
  let gain =
    match scope with
    | Op.Block -> Sync_loc.effective t.sync loc ~block
    | Op.Global_scope -> Sync_loc.join_all_blocks t.sync loc
  in
  match gain with
  | None -> ()
  | Some v -> Warp_clocks.acquire t.wc ~lane v

let do_release t ~lane ~loc scope =
  let c = Warp_clocks.materialize t.wc ~lane in
  (match scope with
  | Op.Block ->
      let block = Warp_clocks.block t.wc in
      Sync_loc.release_block t.sync loc ~block c
  | Op.Global_scope -> Sync_loc.release_global t.sync loc c);
  Warp_clocks.release_increment t.wc ~lane

let census_bump t wc =
  let idx =
    match Warp_clocks.format_of wc with
    | Warp_clocks.Converged -> 0
    | Warp_clocks.Diverged -> 1
    | Warp_clocks.Nested_diverged -> 2
    | Warp_clocks.Sparse_vc -> 3
  in
  t.census.(idx) <- t.census.(idx) + 1

let[@inline] owned t index =
  match t.owns with None -> true | Some f -> f t.space t.region index

let owns_word t index =
  owned t index && owned t (index + 1) && owned t (index + 2)
  && owned t (index + 3)

(* One check per byte cell.  The ownership filter runs before
   [Shadow.cell], so a sharded detector never materializes pages for
   cells it does not own — shadow state is genuinely partitioned, not
   replicated. *)
let do_bytes t ~lane ~first ~last =
  for index = first to last do
    if owned t index then
      do_cell t ~lane ~index ~n:1
        (Shadow.cell t.shadow ~space:t.space ~region:t.region ~index)
  done

(* The record's active lanes as data accesses of [kind], each over the
   bytes it covers.  An aligned access of whole words checks each word
   once, through its summary, wherever the word has one or can get one
   (this detector owns all four bytes); every other word, and every
   sub-word or misaligned access, goes byte by byte. *)
let data_lanes t kind ~mask ~width =
  t.kind <- kind;
  for lane = 0 to t.layout.Layout.warp_size - 1 do
    if mask land (1 lsl lane) <> 0 then begin
      let addr = Array.unsafe_get t.addrs lane in
      if addr land 3 <> 0 || width land 3 <> 0 then
        do_bytes t ~lane ~first:addr ~last:(addr + width - 1)
      else
        for w = 0 to (width asr 2) - 1 do
          let index = addr + (4 * w) in
          let s =
            if owns_word t index then
              Shadow.summary t.shadow ~space:t.space ~region:t.region ~index
            else Shadow.none
          in
          if s <> Shadow.none then do_cell t ~lane ~index ~n:4 s
          else do_bytes t ~lane ~first:index ~last:(index + 3)
        done
    end
  done

(* The record's active lanes as acquires and/or releases.  [Loc.make]
   is built here only: building it for every lane would charge each
   plain access its allocation. *)
let sync_lanes t (role : Gtrace.Roles.t) ~mask =
  for lane = 0 to t.layout.Layout.warp_size - 1 do
    if mask land (1 lsl lane) <> 0 then
      let loc =
        Loc.make ~space:t.space ~region:t.region
          ~addr:(Array.unsafe_get t.addrs lane)
      in
      match role with
      | Acquire s -> do_acquire t ~lane ~loc s
      | Release s -> do_release t ~lane ~loc s
      | Acquire_release s ->
          do_acquire t ~lane ~loc s;
          do_release t ~lane ~loc s
      | Plain -> ()
  done

(* The role/opcode dispatch, once per record: the instruction's role
   and the record's opcode make its lanes data accesses of one kind, or
   acquires and releases.  The access kind arrives as its wire opcode,
   so no [Simt.Event.access_kind] is materialized (the [Atomic _]
   constructor would allocate). *)
let access_lanes t (role : Gtrace.Roles.t) opc ~mask ~width =
  let is_load = opc = Wire.op_load and is_store = opc = Wire.op_store in
  match role with
  | (Plain | Release _ | Acquire_release _) when is_load ->
      data_lanes t Report.Read ~mask ~width
  | (Plain | Acquire _ | Acquire_release _) when is_store ->
      data_lanes t Report.Write ~mask ~width
  | Plain -> data_lanes t Report.Atomic_rmw ~mask ~width
  | Acquire _ | Release _ | Acquire_release _ -> sync_lanes t role ~mask

let do_barrier t block =
  let wpb = Layout.warps_per_block t.layout in
  let first = block * wpb in
  let clock = ref 0 in
  let overlay = ref None in
  for i = first to first + wpb - 1 do
    clock := Int.max !clock (Warp_clocks.max_own t.warps.(i));
    overlay :=
      (match (!overlay, Warp_clocks.overlay_union t.warps.(i)) with
      | None, o -> o
      | o, None -> o
      | Some a, Some b -> Some (Cvc.join a b))
  done;
  for i = first to first + wpb - 1 do
    Warp_clocks.apply_barrier t.warps.(i) ~clock:!clock ~overlay:!overlay
  done

(* An intact record can still name a warp, instruction or block that
   this detector does not have, e.g. a recording replayed against
   another kernel.  Checked once per record, before it touches any
   state, so the dispatch below indexes without bounds checks ([drop]
   and [roles] have one entry per instruction). *)
let warp_in_range t buf ~pos =
  let warp = Wire.View.warp buf ~pos in
  warp >= 0 && warp < Array.length t.warps

let well_formed t opc buf ~pos =
  if Wire.is_access opc then
    warp_in_range t buf ~pos
    &&
    let insn = Wire.View.insn buf ~pos in
    insn >= 0 && insn < Array.length t.roles
  else if
    opc = Wire.op_branch_if || opc = Wire.op_branch_else
    || opc = Wire.op_branch_fi
  then warp_in_range t buf ~pos
  else if opc = Wire.op_barrier then
    Wire.View.aux buf ~pos < t.layout.Layout.blocks
  else opc = Wire.op_barrier_divergence

let note_corrupt t =
  Telemetry.Metric.counter_incr m_int_corrupt;
  Report.note_corrupt t.report

(* The in-place entry: consume a cell directly out of a transport
   buffer.  The view (buf, pos) is only guaranteed valid for the
   duration of the call — for queue rings, until the consumer releases
   the slot — and nothing here retains it.  A load never uses its
   lanes' values, so only stores and atomics decode them.  An access
   the plan drops is skipped whole — no record id, no census, no
   clock join — as if it had never been logged. *)
let process_record t ~nvalues buf ~pos =
  let opc = Wire.View.opcode buf ~pos in
  if not (well_formed t opc buf ~pos) then note_corrupt t
  else if
    Wire.is_access opc && Array.unsafe_get t.drop (Wire.View.insn buf ~pos)
  then t.planned_out <- t.planned_out + 1
  else begin
    t.record_id <- t.record_id + 1;
    if Wire.is_access opc then begin
      let sc = Wire.View.aux buf ~pos in
      (* space codes 0 = global, 1 = shared; local/param never race *)
      if sc <= 1 then begin
        let wc = Array.unsafe_get t.warps (Wire.View.warp buf ~pos) in
        census_bump t wc;
        t.wc <- wc;
        t.insn <- Wire.View.insn buf ~pos;
        t.space <- Wire.space_of_code sc;
        t.region <- (if sc = 1 then Warp_clocks.block wc else 0);
        let mask = Wire.View.mask buf ~pos in
        Wire.View.addrs buf ~pos ~mask t.addrs;
        if opc <> Wire.op_load then
          Wire.View.values buf ~pos ~nvalues ~mask ~lo:t.value_lo
            ~hi:t.value_hi;
        access_lanes t (Array.unsafe_get t.roles t.insn) opc ~mask
          ~width:(Wire.View.width buf ~pos);
        Warp_clocks.join_fork wc ~mask
      end
    end
    else if opc = Wire.op_branch_if then
      Warp_clocks.push_if
        (Array.unsafe_get t.warps (Wire.View.warp buf ~pos))
        ~then_mask:(Wire.View.then_mask buf ~pos)
        ~else_mask:(Wire.View.else_mask buf ~pos)
    else if opc = Wire.op_branch_else || opc = Wire.op_branch_fi then begin
      (* A lost branch_if (dropped record, failed checksum) leaves this
         else/fi with no frame to pop.  Skipping it loses one
         reconvergence join — a soundness caveat already implied by the
         upstream loss — where popping the root frame would corrupt
         every later verdict and raising would kill the consumer. *)
      let wc = Array.unsafe_get t.warps (Wire.View.warp buf ~pos) in
      if Warp_clocks.path_depth wc > 1 then
        Warp_clocks.pop_path wc ~mask:(Wire.View.mask buf ~pos)
      else begin
        Telemetry.Metric.counter_incr m_int_desync;
        Report.note_desync t.report
      end
    end
    else if opc = Wire.op_barrier then do_barrier t (Wire.View.aux buf ~pos)
    else
      Report.add_barrier_divergence t.report
        ~warp:(Wire.View.warp buf ~pos)
        ~insn:(Wire.View.insn buf ~pos)
  end

(* Add the counts since the last publish to the registry, or drop them
   with telemetry off: at every record boundary the totals are what a
   counter bump per event would make them. *)
let publish t enabled =
  if enabled then begin
    Telemetry.Metric.counter_incr m_records;
    Telemetry.Metric.counter_add m_checks (t.accesses - t.published_checks);
    Telemetry.Metric.counter_add m_planned_out
      (t.planned_out - t.published_planned_out);
    Telemetry.Metric.counter_add m_epoch_fast t.epoch_fast;
    Telemetry.Metric.counter_add m_vc_full t.vc_full;
    Telemetry.Metric.counter_add m_races t.races
  end;
  t.published_checks <- t.accesses;
  t.published_planned_out <- t.planned_out;
  t.epoch_fast <- 0;
  t.vc_full <- 0;
  t.races <- 0

(* Integrity-checked wrapper: validate magic/version/checksum and the
   value count, then the producer's sequence number.  Anomalies are
   counted, noted on the report (degrading the verdict), and absorbed —
   a corrupted or stale record is skipped, a gap is accounted and the
   stream accepted from the new position.  Stale records cannot be
   replayed: warp-clock state has already moved past them, so feeding
   them again would corrupt detection rather than repair it. *)
let feed_record t buf ~pos =
  let enabled = Telemetry.Registry.enabled () in
  let t0 = if enabled then Telemetry.Clock.now_ns () else 0L in
  t.records <- t.records + 1;
  let nvalues = Wire.value_count buf ~pos in
  (match Wire.check buf ~pos with
  | Wire.Intact when nvalues >= 0 ->
      let expect = t.seq_next in
      let seq = Wire.View.seq buf ~pos in
      let diff = (seq - (expect land 0xFFFFFFFF)) land 0xFFFFFFFF in
      if diff = 0 then begin
        t.seq_next <- expect + 1;
        process_record t ~nvalues buf ~pos
      end
      else if diff < 0x80000000 then begin
        t.seq_next <- expect + diff + 1;
        Telemetry.Metric.counter_add m_int_gap diff;
        Report.note_gap t.report diff;
        process_record t ~nvalues buf ~pos
      end
      else begin
        Telemetry.Metric.counter_incr m_int_stale;
        Report.note_stale t.report
      end
  | Wire.Intact | Wire.Bad_magic | Wire.Bad_version | Wire.Bad_checksum ->
      note_corrupt t);
  publish t enabled;
  if enabled then
    Telemetry.Span.record_ns sp_feed_record
      (Int64.sub (Telemetry.Clock.now_ns ()) t0)

let stats t =
  let ptvc_bytes =
    Array.fold_left (fun acc wc -> acc + Warp_clocks.footprint_bytes wc) 0 t.warps
  in
  let total = Layout.total_threads t.layout in
  {
    accesses_checked = t.accesses;
    records_processed = t.records;
    planned_out = t.planned_out;
    ptvc_converged = t.census.(0);
    ptvc_diverged = t.census.(1);
    ptvc_nested = t.census.(2);
    ptvc_sparse = t.census.(3);
    shadow_pages = Shadow.pages t.shadow;
    shadow_cells = Shadow.cells t.shadow;
    shadow_byte_cells = Shadow.byte_cells t.shadow;
    shadow_bytes = Shadow.bytes t.shadow;
    sync_locations = Sync_loc.count t.sync;
    ptvc_bytes;
    full_vc_bytes = total * total * 4;
  }
