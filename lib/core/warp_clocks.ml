module Layout = Vclock.Layout
module Cvc = Vclock.Cvc
module Mut = Vclock.Cvc.Mut
module Epoch = Vclock.Epoch
module Vc = Vclock.Vector_clock

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

let top t =
  match t.stack with f :: _ -> f | [] -> assert false

let active_mask t = (top t).mask
let depth t = List.length t.stack
let own_clock t ~lane = t.own.(lane)

let epoch t ~lane =
  Epoch.make ~clock:t.own.(lane) ~tid:(t.first_tid + lane)

let base_entry t ~lane ~tid =
  if tid >= t.first_tid && tid < t.first_tid + t.ws then
    let u = tid - t.first_tid in
    if u = lane then t.own.(lane) else Int.max (top t).sib.(u) t.block_clock
  else if tid >= t.block_lo && tid < t.block_hi then t.block_clock
  else 0

let entry t ~lane ~tid =
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
   ownership slots alone (ownership is only read beside an overlay). *)
let join_fork t ~mask =
  if mask <> 0 then begin
    let f = top t in
    let m = ref 0 in
    for l = 0 to t.ws - 1 do
      if mask land (1 lsl l) <> 0 && t.own.(l) > !m then m := t.own.(l)
    done;
    let m = !m in
    f.local <- m;
    let shared = if t.overlays > 0 then overlay_union_mut t mask else None in
    for l = 0 to t.ws - 1 do
      if mask land (1 lsl l) <> 0 then begin
        f.sib.(l) <- m;
        t.own.(l) <- m + 1;
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
  let acc = ref Vc.bottom in
  for tid = 0 to Layout.total_threads t.layout - 1 do
    let c = entry t ~lane ~tid in
    if c > 0 then acc := Vc.set !acc tid c
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
