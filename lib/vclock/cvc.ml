module Imap = Map.Make (Int)

type t = {
  layout : Layout.t;
  block_floor : int Imap.t; (* block id -> min clock for all its threads *)
  warp_floor : int Imap.t; (* global warp id -> min clock for its threads *)
  point : int Imap.t; (* tid -> exact-or-raised clock *)
}
(* Invariants: no stored value is <= 0; a point entry is kept only if it
   exceeds the floors covering its thread, and a warp floor only if it
   exceeds its block floor.  [get] takes the max of the three layers, so
   these invariants make representations canonical enough for cheap
   [footprint] accounting (semantic [equal] never relies on them). *)

let layout v = v.layout

let bottom layout =
  { layout; block_floor = Imap.empty; warp_floor = Imap.empty; point = Imap.empty }

let is_bottom v =
  Imap.is_empty v.block_floor && Imap.is_empty v.warp_floor
  && Imap.is_empty v.point

let find0 key m = match Imap.find_opt key m with Some c -> c | None -> 0

let floor_for_tid v tid =
  let b = Layout.block_of_tid v.layout tid in
  let w = Layout.warp_of_tid v.layout tid in
  Int.max (find0 b v.block_floor) (find0 w v.warp_floor)

let get v tid = Int.max (floor_for_tid v tid) (find0 tid v.point)

let set_point v tid c =
  if c <= floor_for_tid v tid || c <= find0 tid v.point then v
  else { v with point = Imap.add tid c v.point }

let raise_warp v w c =
  let b = Layout.block_of_warp v.layout w in
  if c <= find0 b v.block_floor || c <= find0 w v.warp_floor then v
  else
    (* Drop point entries the new floor subsumes. *)
    let point =
      Imap.filter
        (fun tid pc ->
          pc > c || Layout.warp_of_tid v.layout tid <> w)
        v.point
    in
    { v with warp_floor = Imap.add w c v.warp_floor; point }

let raise_block v b c =
  if c <= find0 b v.block_floor then v
  else
    let warp_floor =
      Imap.filter
        (fun w wc -> wc > c || Layout.block_of_warp v.layout w <> b)
        v.warp_floor
    in
    let point =
      Imap.filter
        (fun tid pc -> pc > c || Layout.block_of_tid v.layout tid <> b)
        v.point
    in
    { v with block_floor = Imap.add b c v.block_floor; warp_floor; point }

let check_same_layout a b =
  if a.layout <> b.layout then invalid_arg "Cvc: layout mismatch"

let join a b =
  check_same_layout a b;
  let v =
    {
      a with
      block_floor = Imap.union (fun _ x y -> Some (Int.max x y)) a.block_floor b.block_floor;
      warp_floor = Imap.union (fun _ x y -> Some (Int.max x y)) a.warp_floor b.warp_floor;
    }
  in
  let v = Imap.fold (fun tid c acc -> set_point acc tid c) a.point v in
  Imap.fold (fun tid c acc -> set_point acc tid c) b.point v

(* [covered] checks that every thread in a floor's range reaches [c] in
   [b]; ranges are warp- or block-sized, so enumeration stays bounded by
   the block size, not the grid. *)
let warp_covered b w c =
  let lo = Layout.tid_of_warp_lane b.layout ~warp:w ~lane:0 in
  let n = Layout.threads_in_warp b.layout w in
  let rec go i = i >= n || (c <= get b (lo + i) && go (i + 1)) in
  find0 w b.warp_floor >= c
  || find0 (Layout.block_of_warp b.layout w) b.block_floor >= c
  || go 0

let block_covered b blk c =
  find0 blk b.block_floor >= c
  ||
  let wpb = Layout.warps_per_block b.layout in
  let rec go i =
    i >= wpb || (warp_covered b ((blk * wpb) + i) c && go (i + 1))
  in
  go 0

let leq a b =
  check_same_layout a b;
  Imap.for_all (fun tid c -> c <= get b tid) a.point
  && Imap.for_all (fun w c -> warp_covered b w c) a.warp_floor
  && Imap.for_all (fun blk c -> block_covered b blk c) a.block_floor

let to_vector_clock v =
  let acc = ref Vector_clock.bottom in
  for tid = 0 to Layout.total_threads v.layout - 1 do
    let c = get v tid in
    if c > 0 then acc := Vector_clock.set !acc tid c
  done;
  !acc

let of_vector_clock layout vc =
  Vector_clock.fold
    (fun tid c acc -> set_point acc tid c)
    vc (bottom layout)

let equal a b = leq a b && leq b a

let footprint v =
  Imap.cardinal v.block_floor + Imap.cardinal v.warp_floor
  + Imap.cardinal v.point

let pp ppf v =
  let pp_map tag ppf m =
    Imap.iter (fun k c -> Format.fprintf ppf "%s%d>=%d;@ " tag k c) m
  in
  Format.fprintf ppf "@[<h>{%a%a%a}@]" (pp_map "B") v.block_floor
    (pp_map "W") v.warp_floor (pp_map "t") v.point

module Mut = struct
  type cvc = t

  let cvc_bottom = bottom
  let cvc_raise_block = raise_block
  let cvc_raise_warp = raise_warp
  let cvc_set_point = set_point

  type t = {
    layout : Layout.t;
    block_floor : (int, int) Hashtbl.t;
    warp_floor : (int, int) Hashtbl.t;
    point : (int, int) Hashtbl.t;
  }
  (* The mutable layers keep a weaker invariant than the persistent
     representation: every stored value is > 0 and is the max ever raised
     for its key, but entries subsumed by a floor raised later are NOT
     filtered out ([get] takes the max of the layers, so they are
     harmless).  [freeze] re-canonicalizes. *)

  let create layout =
    {
      layout;
      block_floor = Hashtbl.create 8;
      warp_floor = Hashtbl.create 8;
      point = Hashtbl.create 8;
    }

  let layout m = m.layout

  let find0 tbl key =
    match Hashtbl.find_opt tbl key with Some c -> c | None -> 0

  let floor_for_tid m tid =
    let b = Layout.block_of_tid m.layout tid in
    let w = Layout.warp_of_tid m.layout tid in
    Int.max (find0 m.block_floor b) (find0 m.warp_floor w)

  let get m tid = Int.max (floor_for_tid m tid) (find0 m.point tid)

  (* [Hashtbl.replace] of an existing key updates the bucket in place,
     so repeated raises of the same thread do not allocate. *)
  let raise_point m tid c =
    if c > floor_for_tid m tid && c > find0 m.point tid then
      Hashtbl.replace m.point tid c

  let raise_warp m w c =
    let b = Layout.block_of_warp m.layout w in
    if c > find0 m.block_floor b && c > find0 m.warp_floor w then
      Hashtbl.replace m.warp_floor w c

  let raise_block m b c =
    if c > find0 m.block_floor b then Hashtbl.replace m.block_floor b c

  let check_layout m (v : cvc) =
    if m.layout <> v.layout then invalid_arg "Cvc.Mut: layout mismatch"

  let join_into (v : cvc) m =
    check_layout m v;
    Imap.iter (fun b c -> raise_block m b c) v.block_floor;
    Imap.iter (fun w c -> raise_warp m w c) v.warp_floor;
    Imap.iter (fun tid c -> raise_point m tid c) v.point

  let merge_into src ~into =
    if src.layout <> into.layout then invalid_arg "Cvc.Mut: layout mismatch";
    Hashtbl.iter (fun b c -> raise_block into b c) src.block_floor;
    Hashtbl.iter (fun w c -> raise_warp into w c) src.warp_floor;
    Hashtbl.iter (fun tid c -> raise_point into tid c) src.point

  (* Floors first so the persistent canonicalization drops subsumed
     warp floors and point entries on the way in. *)
  let freeze m =
    let v = ref (cvc_bottom m.layout) in
    Hashtbl.iter (fun b c -> v := cvc_raise_block !v b c) m.block_floor;
    Hashtbl.iter (fun w c -> v := cvc_raise_warp !v w c) m.warp_floor;
    Hashtbl.iter (fun tid c -> v := cvc_set_point !v tid c) m.point;
    !v

  let thaw (v : cvc) =
    let m = create v.layout in
    Imap.iter (fun b c -> Hashtbl.replace m.block_floor b c) v.block_floor;
    Imap.iter (fun w c -> Hashtbl.replace m.warp_floor w c) v.warp_floor;
    Imap.iter (fun tid c -> Hashtbl.replace m.point tid c) v.point;
    m

  let copy m =
    {
      layout = m.layout;
      block_floor = Hashtbl.copy m.block_floor;
      warp_floor = Hashtbl.copy m.warp_floor;
      point = Hashtbl.copy m.point;
    }

  let clear m =
    Hashtbl.reset m.block_floor;
    Hashtbl.reset m.warp_floor;
    Hashtbl.reset m.point

  let is_bottom m =
    Hashtbl.length m.block_floor = 0
    && Hashtbl.length m.warp_floor = 0
    && Hashtbl.length m.point = 0

  let iter_points f m = Hashtbl.iter f m.point

  let footprint m =
    Hashtbl.length m.block_floor + Hashtbl.length m.warp_floor
    + Hashtbl.length m.point
end
