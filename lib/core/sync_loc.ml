module Cvc = Vclock.Cvc
module Mut = Vclock.Cvc.Mut
module Loc = Gtrace.Loc

(* Entries hold detector-owned mutable clocks.  A release reuses the
   existing entry's tables (clear + refill) instead of rebuilding a
   persistent clock; every read-side operation freezes before the clock
   escapes, because the caller may keep it past the next release. *)
type entry = {
  mutable global_vc : Mut.t option;
  per_block : (int, Mut.t) Hashtbl.t;
}

type t = { layout : Vclock.Layout.t; locs : entry Loc.Tbl.t }

let create layout = { layout; locs = Loc.Tbl.create 16 }

let entry_of t loc =
  match Loc.Tbl.find_opt t.locs loc with
  | Some e -> e
  | None ->
      let e = { global_vc = None; per_block = Hashtbl.create 4 } in
      Loc.Tbl.add t.locs loc e;
      e

let effective t loc ~block =
  match Loc.Tbl.find_opt t.locs loc with
  | None -> None
  | Some e -> (
      match Hashtbl.find_opt e.per_block block with
      | Some m -> Some (Mut.freeze m)
      | None -> (
          match e.global_vc with
          | Some m -> Some (Mut.freeze m)
          | None -> None))

let join_all_blocks t loc =
  match Loc.Tbl.find_opt t.locs loc with
  | None -> None
  | Some e ->
      let acc = Mut.create t.layout in
      (match e.global_vc with
      | Some g -> Mut.merge_into g ~into:acc
      | None -> ());
      Hashtbl.iter (fun _b m -> Mut.merge_into m ~into:acc) e.per_block;
      if Mut.is_bottom acc then None else Some (Mut.freeze acc)

(* Release semantics replace (not join) the entry, per FastTrack's
   [S_x := C_t]; the stored tables are reused across releases. *)
let release_block t loc ~block v =
  let e = entry_of t loc in
  match Hashtbl.find_opt e.per_block block with
  | Some m ->
      Mut.clear m;
      Mut.join_into v m
  | None -> Hashtbl.replace e.per_block block (Mut.thaw v)

let release_global t loc v =
  let e = entry_of t loc in
  Hashtbl.reset e.per_block;
  match e.global_vc with
  | Some m ->
      Mut.clear m;
      Mut.join_into v m
  | None -> e.global_vc <- Some (Mut.thaw v)

let count t = Loc.Tbl.length t.locs
let mem t loc = Loc.Tbl.mem t.locs loc
