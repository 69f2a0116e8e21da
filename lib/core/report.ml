type access_kind = Read | Write | Atomic_rmw
type race_class = Intra_warp | Intra_block | Inter_block

type race = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : access_kind;
  prev_insn : int;
  cur_tid : int;
  cur_kind : access_kind;
  cur_insn : int;
  same_instruction : bool;
  cls : race_class;
}

type error =
  | Race of race
  | Barrier_divergence of { warp : int; insn : int }

(* A race's identity, (location, previous thread and kind, current
   thread and kind), flattened into immediates: the space and both
   kinds share [tag]. *)
module Dedup_key = struct
  type t = { tag : int; region : int; addr : int; prev_tid : int; cur_tid : int }

  let equal a b =
    a.addr = b.addr && a.prev_tid = b.prev_tid && a.cur_tid = b.cur_tid
    && a.tag = b.tag && a.region = b.region

  let hash k =
    let h = (k.addr * 0x9E3779B1) + k.prev_tid in
    let h = (h * 0x85EBCA6B) + k.cur_tid in
    let h = (h * 0xC2B2AE35) + (k.region lsl 4) + k.tag in
    (h lxor (h lsr 29)) land max_int

  let kind_code = function Read -> 0 | Write -> 1 | Atomic_rmw -> 2

  let make (loc : Gtrace.Loc.t) ~prev_tid ~prev_kind ~cur_tid ~cur_kind =
    let space = match loc.space with Ptx.Ast.Global -> 0 | _ -> 1 in
    {
      tag = (space * 9) + (kind_code prev_kind * 3) + kind_code cur_kind;
      region = loc.region;
      addr = loc.addr;
      prev_tid;
      cur_tid;
    }
end

module Dedup = Hashtbl.Make (Dedup_key)

module Loc_set = Set.Make (struct
  type t = Gtrace.Loc.t

  let compare = Gtrace.Loc.compare
end)

type integrity = { corrupt : int; gaps : int; stale : int; desync : int }

type t = {
  layout : Vclock.Layout.t;
  max_reports : int;
  seen : unit Dedup.t;
  mutable locs : Loc_set.t;
  mutable errors : error list; (* reversed *)
  mutable kept : int;
  mutable race_count : int;
  mutable bardiv_seen : (int * int) list;
  mutable corrupt : int; (* records failing checksum/magic or range checks *)
  mutable gaps : int; (* records lost per sequence-number gaps *)
  mutable stale : int; (* duplicate / out-of-date records skipped *)
  mutable desync : int; (* control records orphaned by upstream losses *)
}

let create ?(max_reports = 1000) ~layout () =
  {
    layout;
    max_reports;
    seen = Dedup.create 64;
    locs = Loc_set.empty;
    errors = [];
    kept = 0;
    race_count = 0;
    bardiv_seen = [];
    corrupt = 0;
    gaps = 0;
    stale = 0;
    desync = 0;
  }

let classify layout t1 t2 =
  if Vclock.Layout.warp_of_tid layout t1 = Vclock.Layout.warp_of_tid layout t2
  then Intra_warp
  else if
    Vclock.Layout.block_of_tid layout t1 = Vclock.Layout.block_of_tid layout t2
  then Intra_block
  else Inter_block

let add_race t ~prev_insn ~cur_insn ~loc ~prev_tid ~prev_kind ~cur_tid
    ~cur_kind ~same_instruction =
  let key = Dedup_key.make loc ~prev_tid ~prev_kind ~cur_tid ~cur_kind in
  if not (Dedup.mem t.seen key) then begin
    Dedup.add t.seen key ();
    t.locs <- Loc_set.add loc t.locs;
    t.race_count <- t.race_count + 1;
    if t.kept < t.max_reports then begin
      let cls = classify t.layout prev_tid cur_tid in
      t.errors <-
        Race
          {
            loc;
            prev_tid;
            prev_kind;
            prev_insn;
            cur_tid;
            cur_kind;
            cur_insn;
            same_instruction;
            cls;
          }
        :: t.errors;
      t.kept <- t.kept + 1
    end
  end

let add_barrier_divergence t ~warp ~insn =
  if not (List.mem (warp, insn) t.bardiv_seen) then begin
    t.bardiv_seen <- (warp, insn) :: t.bardiv_seen;
    if t.kept < t.max_reports then begin
      t.errors <- Barrier_divergence { warp; insn } :: t.errors;
      t.kept <- t.kept + 1
    end
  end

let note_corrupt t = t.corrupt <- t.corrupt + 1
let note_gap t n = t.gaps <- t.gaps + n
let note_stale t = t.stale <- t.stale + 1
let note_desync t = t.desync <- t.desync + 1

let integrity t =
  { corrupt = t.corrupt; gaps = t.gaps; stale = t.stale; desync = t.desync }

(* A degraded verdict is a soundness caveat, not an error: detection
   ran, but part of the event stream was lost or corrupted in
   transport, so "no race found" may under-report. *)
let degraded t =
  t.corrupt > 0 || t.gaps > 0 || t.stale > 0 || t.desync > 0

let errors t = List.rev t.errors
let race_count t = t.race_count
let racy_locations t = Loc_set.cardinal t.locs
let has_race t = race_count t > 0

let kind_string = function
  | Read -> "read"
  | Write -> "write"
  | Atomic_rmw -> "atomic"

let class_string = function
  | Intra_warp -> "intra-warp"
  | Intra_block -> "intra-block"
  | Inter_block -> "inter-block"

let insn_string insn =
  if insn >= 0 then Printf.sprintf " (insn %d)" insn else ""

let error_to_string = function
  | Race r ->
      Printf.sprintf "%s race on %s: %s by t%d%s vs %s by t%d%s%s"
        (class_string r.cls)
        (Gtrace.Loc.to_string r.loc)
        (kind_string r.prev_kind) r.prev_tid (insn_string r.prev_insn)
        (kind_string r.cur_kind) r.cur_tid (insn_string r.cur_insn)
        (if r.same_instruction then " (same instruction)" else "")
  | Barrier_divergence { warp; insn } ->
      Printf.sprintf "barrier divergence: warp %d at insn %d" warp insn

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)
let pp_kind ppf k = Format.pp_print_string ppf (kind_string k)
