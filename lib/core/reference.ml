module Vc = Vclock.Vector_clock
module Epoch = Vclock.Epoch
module Layout = Vclock.Layout
module Op = Gtrace.Op
module Loc = Gtrace.Loc

type read_meta = R_epoch of Epoch.t | R_vc of Vc.t

type write_meta = {
  epoch : Epoch.t;
  atomic : bool;
  value : int64;
  instr : int * int; (* (warp, per-warp instruction seq) of the write *)
}

let bottom_write =
  { epoch = Epoch.bottom; atomic = false; value = 0L; instr = (-1, -1) }

type t = {
  layout : Layout.t;
  filter_same_value : bool;
  clocks : (int, Vc.t) Hashtbl.t; (* C: tid -> vector clock *)
  sync : (int, Vc.t) Hashtbl.t Loc.Tbl.t; (* S: loc -> block -> vc *)
  reads : read_meta Loc.Tbl.t; (* R *)
  writes : write_meta Loc.Tbl.t; (* W *)
  instr_seq : (int, int) Hashtbl.t; (* warp -> current instruction seq *)
  report : Report.t;
}

let create ?max_reports ?(filter_same_value = true) ~layout () =
  {
    layout;
    filter_same_value;
    clocks = Hashtbl.create 64;
    sync = Loc.Tbl.create 16;
    reads = Loc.Tbl.create 256;
    writes = Loc.Tbl.create 256;
    instr_seq = Hashtbl.create 16;
    report = Report.create ?max_reports ~layout ();
  }

let report t = t.report

let clock t tid =
  match Hashtbl.find_opt t.clocks tid with
  | Some v -> v
  | None -> Vc.incr Vc.bottom tid (* initial state: own entry = 1 *)

let set_clock t tid v = Hashtbl.replace t.clocks tid v
let epoch_of t tid = Epoch.make ~clock:(Vc.get (clock t tid) tid) ~tid

let cur_instr t warp =
  (warp, match Hashtbl.find_opt t.instr_seq warp with Some s -> s | None -> 0)

let bump_instr t warp =
  let _, s = cur_instr t warp in
  Hashtbl.replace t.instr_seq warp (s + 1)

let read_meta t loc =
  match Loc.Tbl.find_opt t.reads loc with
  | Some m -> m
  | None -> R_epoch Epoch.bottom

let write_meta t loc =
  match Loc.Tbl.find_opt t.writes loc with
  | Some m -> m
  | None -> bottom_write

(* join-and-fork: the core of endi / if / else / fi / bar. *)
let join_fork t tids =
  match tids with
  | [] -> ()
  | _ ->
      let vc = List.fold_left (fun acc u -> Vc.join acc (clock t u)) Vc.bottom tids in
      List.iter (fun u -> set_clock t u (Vc.incr vc u)) tids

let check_write_ordered t ~loc ~tid ~cur_kind ~value ~instr =
  let w = write_meta t loc in
  if not (Epoch.leq_vc w.epoch (clock t tid)) then begin
    let same_instruction = w.instr = instr in
    let filtered =
      t.filter_same_value && same_instruction
      && cur_kind = Report.Write && (not w.atomic) && w.value = value
    in
    if not filtered then
      Report.add_race t.report ~prev_insn:(-1) ~cur_insn:(-1) ~loc
        ~prev_tid:w.epoch.Epoch.tid
        ~prev_kind:(if w.atomic then Report.Atomic_rmw else Report.Write)
        ~cur_tid:tid ~cur_kind ~same_instruction
  end

(* Read-vs-write races are never same-instruction: one warp instruction
   performs a single kind of access across its lanes. *)
let check_reads_ordered t ~loc ~tid ~cur_kind =
  let c = clock t tid in
  match read_meta t loc with
  | R_epoch e ->
      if not (Epoch.leq_vc e c) then
        Report.add_race t.report ~prev_insn:(-1) ~cur_insn:(-1) ~loc
          ~prev_tid:e.Epoch.tid ~prev_kind:Report.Read ~cur_tid:tid ~cur_kind
          ~same_instruction:false
  | R_vc rvc ->
      Vc.fold
        (fun u cu () ->
          if cu > Vc.get c u then
            Report.add_race t.report ~prev_insn:(-1) ~cur_insn:(-1) ~loc
              ~prev_tid:u ~prev_kind:Report.Read ~cur_tid:tid ~cur_kind
              ~same_instruction:false)
        rvc ()

let do_read t tid loc =
  let c = clock t tid in
  let instr = cur_instr t (Layout.warp_of_tid t.layout tid) in
  check_write_ordered t ~loc ~tid ~cur_kind:Report.Read ~value:0L ~instr;
  (match read_meta t loc with
  | R_epoch e when Epoch.leq_vc e c ->
      (* ReadExcl: totally ordered reads stay an epoch *)
      Loc.Tbl.replace t.reads loc (R_epoch (epoch_of t tid))
  | R_epoch e ->
      (* ReadInflate: first concurrent read *)
      let vc = Vc.set (Vc.set Vc.bottom e.Epoch.tid e.Epoch.clock) tid (Vc.get c tid) in
      Loc.Tbl.replace t.reads loc (R_vc vc)
  | R_vc rvc ->
      (* ReadShared *)
      Loc.Tbl.replace t.reads loc (R_vc (Vc.set rvc tid (Vc.get c tid))));
  ()

let do_write t tid loc value =
  let instr = cur_instr t (Layout.warp_of_tid t.layout tid) in
  check_write_ordered t ~loc ~tid ~cur_kind:Report.Write ~value ~instr;
  check_reads_ordered t ~loc ~tid ~cur_kind:Report.Write;
  Loc.Tbl.replace t.reads loc (R_epoch Epoch.bottom);
  Loc.Tbl.replace t.writes loc
    { epoch = epoch_of t tid; atomic = false; value; instr }

let do_atomic t tid loc value =
  let instr = cur_instr t (Layout.warp_of_tid t.layout tid) in
  let w = write_meta t loc in
  (* InitAtom*: ordering with the previous non-atomic write is required;
     Atom*: checks against a previous atomic write are elided. *)
  if not w.atomic then
    check_write_ordered t ~loc ~tid ~cur_kind:Report.Atomic_rmw ~value ~instr;
  check_reads_ordered t ~loc ~tid ~cur_kind:Report.Atomic_rmw;
  Loc.Tbl.replace t.reads loc (R_epoch Epoch.bottom);
  Loc.Tbl.replace t.writes loc
    { epoch = epoch_of t tid; atomic = true; value; instr }

let sync_vcs t loc =
  match Loc.Tbl.find_opt t.sync loc with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Loc.Tbl.add t.sync loc tbl;
      tbl

let sync_vc tbl b =
  match Hashtbl.find_opt tbl b with Some v -> v | None -> Vc.bottom

let do_acquire t tid loc scope =
  let tbl = sync_vcs t loc in
  let gain =
    match scope with
    | Op.Block -> sync_vc tbl (Layout.block_of_tid t.layout tid)
    | Op.Global_scope ->
        Hashtbl.fold (fun _b v acc -> Vc.join acc v) tbl Vc.bottom
  in
  set_clock t tid (Vc.join (clock t tid) gain)

let do_release t tid loc scope =
  let tbl = sync_vcs t loc in
  let c = clock t tid in
  (match scope with
  | Op.Block -> Hashtbl.replace tbl (Layout.block_of_tid t.layout tid) c
  | Op.Global_scope ->
      (* S'_x[b] = C_t for every block in the grid *)
      Hashtbl.reset tbl;
      for b = 0 to t.layout.Layout.blocks - 1 do
        Hashtbl.replace tbl b c
      done);
  set_clock t tid (Vc.incr c tid)

(* ACQREL*: acquire into C_t, publish the joined clock, then increment —
   exactly an acquire followed by a release. *)
let do_acq_rel t tid loc scope =
  do_acquire t tid loc scope;
  do_release t tid loc scope

let invariant_holds t =
  let n = Layout.total_threads t.layout in
  let own = Array.init n (fun tid -> Vc.get (clock t tid) tid) in
  let ok = ref true in
  (* other threads' entries are strictly below the owner's *)
  Hashtbl.iter
    (fun u cu ->
      for tid = 0 to n - 1 do
        if tid <> u && Vc.get cu tid >= own.(tid) then ok := false
      done)
    t.clocks;
  (* read/write metadata never exceeds the owner's clock *)
  Loc.Tbl.iter
    (fun _ meta ->
      match meta with
      | R_epoch e ->
          if (not (Epoch.is_bottom e)) && e.Epoch.clock > own.(e.Epoch.tid) then
            ok := false
      | R_vc v ->
          Vc.fold (fun tid c () -> if c > own.(tid) then ok := false) v ())
    t.reads;
  Loc.Tbl.iter
    (fun _ (w : write_meta) ->
      if
        (not (Epoch.is_bottom w.epoch))
        && w.epoch.Epoch.clock > own.(w.epoch.Epoch.tid)
      then ok := false)
    t.writes;
  (* synchronization-location clocks never exceed the owner's clock *)
  Loc.Tbl.iter
    (fun _ per_block ->
      Hashtbl.iter
        (fun _b v ->
          Vc.fold (fun tid c () -> if c > own.(tid) then ok := false) v ())
        per_block)
    t.sync;
  !ok

let lanes_tids t warp mask =
  List.map
    (fun lane -> Layout.tid_of_warp_lane t.layout ~warp ~lane)
    (Simt.Event.mask_lanes mask)

let step t op =
  match op with
  | Op.Rd { tid; loc } -> do_read t tid loc
  | Op.Wr { tid; loc; value } -> do_write t tid loc value
  | Op.Atm { tid; loc; value } -> do_atomic t tid loc value
  | Op.Endi { warp; mask } ->
      join_fork t (lanes_tids t warp mask);
      bump_instr t warp
  | Op.If { warp; then_mask; else_mask = _ } ->
      join_fork t (lanes_tids t warp then_mask);
      bump_instr t warp
  | Op.Else { warp; mask } | Op.Fi { warp; mask } ->
      join_fork t (lanes_tids t warp mask);
      bump_instr t warp
  | Op.Bar { block } ->
      let first = Layout.first_tid_of_block t.layout block in
      let tids =
        List.init t.layout.Layout.threads_per_block (fun i -> first + i)
      in
      join_fork t tids
  | Op.Acq { tid; loc; scope } -> do_acquire t tid loc scope
  | Op.Rel { tid; loc; scope } -> do_release t tid loc scope
  | Op.AcqRel { tid; loc; scope } -> do_acq_rel t tid loc scope

let run t ops = List.iter (step t) ops
