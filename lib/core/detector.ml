module Layout = Vclock.Layout
module Mut = Vclock.Cvc.Mut
module Loc = Gtrace.Loc
module Op = Gtrace.Op

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
  {
    layout;
    config;
    owns;
    roles = Static.Plan.roles plan;
    drop = Static.Plan.drops plan ~layout;
    warps =
      Array.init (Layout.total_warps layout) (fun warp ->
          Warp_clocks.create layout ~warp);
    shadow = Shadow.create ();
    sync = Sync_loc.create layout;
    report = Report.create ~max_reports:config.max_reports ~layout ();
    record_id = 0;
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

(* [c@u <= C_lane?] via the compressed clock layers.  Epochs arrive as
   bare (clock, tid) ints — the boxed [Epoch.t] is gone from this
   path. *)
let epoch_ordered t ~wc ~lane ~clock ~tid =
  t.epoch_fast <- t.epoch_fast + 1;
  clock <= Warp_clocks.entry wc ~lane ~tid

(* Does the last write race with the current access?  Not if it is
   ordered before it, or if the same warp instruction wrote the same
   value non-atomically (the same-value filter, §3.3.1).  A write's
   value is lane [lane]'s in the decoded record. *)
let write_races t ~rid ~wc ~lane ~cur_kind cell =
  let s = t.shadow in
  (not
     (epoch_ordered t ~wc ~lane ~clock:(Shadow.write_clock s cell)
        ~tid:(Shadow.write_tid s cell)))
  && not
       (t.config.filter_same_value
       && Shadow.write_record s cell = rid
       && cur_kind = Report.Write
       && (not (Shadow.write_atomic s cell))
       && Shadow.same_value s cell
            ~lo:(Array.unsafe_get t.value_lo lane)
            ~hi:(Array.unsafe_get t.value_hi lane))

exception Unordered_read

(* Does a recorded read race with the current access?  An inflated
   read clock costs one full scan, stopped at the first racing
   reader. *)
let reads_race t ~wc ~lane cell =
  let s = t.shadow in
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
      (epoch_ordered t ~wc ~lane ~clock:(Shadow.read_clock s cell)
         ~tid:(Shadow.read_tid s cell))

(* Report the races found on [cell] at each of the [n] bytes from
   [index] it stands for, in the byte shadow's order: per byte,
   ascending, the write race and then the read races. *)
let report_races t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n
    ~cur_kind ~wrace ~rrace cell =
  let s = t.shadow in
  for addr = index to index + n - 1 do
    let loc = Loc.make ~space ~region ~addr in
    let race ~prev_insn ~prev_tid ~prev_kind ~same_instruction =
      t.races <- t.races + 1;
      Report.add_race t.report ~prev_insn ~cur_insn:insn ~loc ~prev_tid
        ~prev_kind ~cur_tid:tid ~cur_kind ~same_instruction
    in
    if wrace then
      race ~prev_insn:(Shadow.write_insn s cell)
        ~prev_tid:(Shadow.write_tid s cell)
        ~prev_kind:
          (if Shadow.write_atomic s cell then Report.Atomic_rmw
           else Report.Write)
        ~same_instruction:(Shadow.write_record s cell = rid);
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
let check t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n ~cur_kind
    ~write ~reads cell =
  t.accesses <- t.accesses + 1;
  let wrace = write && write_races t ~rid ~wc ~lane ~cur_kind cell in
  let rrace = reads && reads_race t ~wc ~lane cell in
  if wrace || rrace then
    report_races t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n
      ~cur_kind ~wrace ~rrace cell

let do_read t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell =
  check t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n
    ~cur_kind:Report.Read ~write:true ~reads:false cell;
  let s = t.shadow in
  let own = Warp_clocks.own_clock wc ~lane in
  Shadow.set_read_insn s cell insn;
  if Shadow.read_shared s cell then
    (* ReadShared *)
    Mut.raise_point (Shadow.read_vc s cell) tid own
  else if
    epoch_ordered t ~wc ~lane ~clock:(Shadow.read_clock s cell)
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

let set_write t ~rid ~wc ~lane ~tid ~insn ~atomic cell =
  Shadow.set_write t.shadow cell ~clock:(Warp_clocks.own_clock wc ~lane) ~tid
    ~insn ~atomic
    ~value_lo:(Array.unsafe_get t.value_lo lane)
    ~value_hi:(Array.unsafe_get t.value_hi lane)
    ~record:rid

let do_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell =
  check t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n
    ~cur_kind:Report.Write ~write:true ~reads:true cell;
  set_write t ~rid ~wc ~lane ~tid ~insn ~atomic:false cell

let do_atomic t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell =
  check t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n
    ~cur_kind:Report.Atomic_rmw
    ~write:(not (Shadow.write_atomic t.shadow cell))
    ~reads:true cell;
  set_write t ~rid ~wc ~lane ~tid ~insn ~atomic:true cell

let do_acquire t ~wc ~lane ~loc scope =
  let block = Warp_clocks.block wc in
  let gain =
    match scope with
    | Op.Block -> Sync_loc.effective t.sync loc ~block
    | Op.Global_scope -> Sync_loc.join_all_blocks t.sync loc
  in
  match gain with
  | None -> ()
  | Some v -> Warp_clocks.acquire wc ~lane v

let do_release t ~wc ~lane ~loc scope =
  let c = Warp_clocks.materialize wc ~lane in
  (match scope with
  | Op.Block ->
      let block = Warp_clocks.block wc in
      Sync_loc.release_block t.sync loc ~block c
  | Op.Global_scope -> Sync_loc.release_global t.sync loc c);
  Warp_clocks.release_increment wc ~lane

let census_bump t wc =
  let idx =
    match Warp_clocks.format_of wc with
    | Warp_clocks.Converged -> 0
    | Warp_clocks.Diverged -> 1
    | Warp_clocks.Nested_diverged -> 2
    | Warp_clocks.Sparse_vc -> 3
  in
  t.census.(idx) <- t.census.(idx) + 1

(* [cls] is 0 = read, 1 = write, 2 = atomic. *)
let do_cell t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~index ~n cell =
  if cls = 0 then
    do_read t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell
  else if cls = 1 then
    do_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell
  else do_atomic t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~n cell

let owned t space region index =
  match t.owns with None -> true | Some f -> f space region index

let owns_word t space region index =
  match t.owns with
  | None -> true
  | Some f ->
      f space region index
      && f space region (index + 1)
      && f space region (index + 2)
      && f space region (index + 3)

(* One check per byte cell.  The ownership filter runs before
   [Shadow.cell], so a sharded detector never materializes pages for
   cells it does not own — shadow state is genuinely partitioned, not
   replicated. *)
let do_bytes t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~first ~last =
  for index = first to last do
    if owned t space region index then
      do_cell t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~index ~n:1
        (Shadow.cell t.shadow ~space ~region ~index)
  done

(* Data access over the bytes it covers.  An aligned access of whole
   words checks each word once, through its summary, wherever the word
   has one or can get one (this detector owns all four bytes); every
   other word, and every sub-word or misaligned access, goes byte by
   byte. *)
let do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~addr ~width
    =
  if addr land 3 <> 0 || width land 3 <> 0 then
    do_bytes t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~first:addr
      ~last:(addr + width - 1)
  else
    for w = 0 to (width asr 2) - 1 do
      let index = addr + (4 * w) in
      if owns_word t space region index then begin
        let s = Shadow.summary t.shadow ~space ~region ~index in
        if s <> Shadow.none then
          do_cell t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~index ~n:4 s
        else
          do_bytes t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region
            ~first:index ~last:(index + 3)
      end
      else
        do_bytes t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~first:index
          ~last:(index + 3)
    done

(* Per-lane dispatch.  The access kind arrives as its wire opcode, so
   no [Simt.Event.access_kind] is materialized (the [Atomic _]
   constructor would allocate). *)
let do_lane t ~rid ~wc ~lane ~tid ~insn ~opc ~role ~space ~region ~addr ~width
    =
  let is_load = opc = Wire.op_load in
  let is_store = opc = Wire.op_store in
  (* [Loc.make] is built inline on the sync branches only: a closure
     here would charge every plain access its allocation. *)
  match (role : Gtrace.Roles.t) with
  | Gtrace.Roles.Plain ->
      let cls = if is_load then 0 else if is_store then 1 else 2 in
      do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~addr ~width
  | Gtrace.Roles.Acquire s ->
      if is_store then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:1 ~space ~region ~addr
          ~width
      else do_acquire t ~wc ~lane ~loc:(Loc.make ~space ~region ~addr) s
  | Gtrace.Roles.Release s ->
      if is_load then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:0 ~space ~region ~addr
          ~width
      else do_release t ~wc ~lane ~loc:(Loc.make ~space ~region ~addr) s
  | Gtrace.Roles.Acquire_release s ->
      if is_load then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:0 ~space ~region ~addr
          ~width
      else if is_store then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:1 ~space ~region ~addr
          ~width
      else begin
        let loc = Loc.make ~space ~region ~addr in
        do_acquire t ~wc ~lane ~loc s;
        do_release t ~wc ~lane ~loc s
      end

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
      | Some a, Some b -> Some (Vclock.Cvc.join a b))
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
    let rid = t.record_id in
    if Wire.is_access opc then begin
      let sc = Wire.View.aux buf ~pos in
      (* space codes 0 = global, 1 = shared; local/param never race *)
      if sc <= 1 then begin
        let warp = Wire.View.warp buf ~pos in
        let wc = Array.unsafe_get t.warps warp in
        census_bump t wc;
        let space = Wire.space_of_code sc in
        let region = if sc = 1 then Warp_clocks.block wc else 0 in
        let insn = Wire.View.insn buf ~pos in
        let role = Array.unsafe_get t.roles insn in
        let mask = Wire.View.mask buf ~pos in
        let width = Wire.View.width buf ~pos in
        let ws = t.layout.Layout.warp_size in
        let first_tid = Warp_clocks.first_tid wc in
        let addrs = t.addrs in
        Wire.View.addrs buf ~pos ~mask addrs;
        if opc <> Wire.op_load then
          Wire.View.values buf ~pos ~nvalues ~mask ~lo:t.value_lo
            ~hi:t.value_hi;
        for lane = 0 to ws - 1 do
          if mask land (1 lsl lane) <> 0 then
            do_lane t ~rid ~wc ~lane ~tid:(first_tid + lane) ~insn ~opc ~role
              ~space ~region ~addr:(Array.unsafe_get addrs lane) ~width
        done;
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
