type scope = Block | Global_scope

type t =
  | Rd of { tid : int; loc : Loc.t }
  | Wr of { tid : int; loc : Loc.t; value : int64 }
  | Endi of { warp : int; mask : int }
  | If of { warp : int; then_mask : int; else_mask : int }
  | Else of { warp : int; mask : int }
  | Fi of { warp : int; mask : int }
  | Bar of { block : int }
  | Atm of { tid : int; loc : Loc.t; value : int64 }
  | Acq of { tid : int; loc : Loc.t; scope : scope }
  | Rel of { tid : int; loc : Loc.t; scope : scope }
  | AcqRel of { tid : int; loc : Loc.t; scope : scope }

let lanes_tids layout warp mask =
  List.map
    (fun lane -> Vclock.Layout.tid_of_warp_lane layout ~warp ~lane)
    (Simt.Event.mask_lanes mask)

let tids layout = function
  | Rd { tid; _ } | Wr { tid; _ } | Atm { tid; _ }
  | Acq { tid; _ } | Rel { tid; _ } | AcqRel { tid; _ } ->
      [ tid ]
  | Endi { warp; mask } | Else { warp; mask } | Fi { warp; mask } ->
      lanes_tids layout warp mask
  | If { warp; then_mask; else_mask } ->
      lanes_tids layout warp (then_mask lor else_mask)
  | Bar { block } ->
      let first = Vclock.Layout.first_tid_of_block layout block in
      List.init layout.Vclock.Layout.threads_per_block (fun i -> first + i)

let pp_scope ppf = function
  | Block -> Format.pp_print_string ppf "blk"
  | Global_scope -> Format.pp_print_string ppf "glb"

let pp ppf = function
  | Rd { tid; loc } -> Format.fprintf ppf "rd(t%d, %a)" tid Loc.pp loc
  | Wr { tid; loc; value } ->
      Format.fprintf ppf "wr(t%d, %a)=%Ld" tid Loc.pp loc value
  | Endi { warp; mask } -> Format.fprintf ppf "endi(w%d, %#x)" warp mask
  | If { warp; then_mask; else_mask } ->
      Format.fprintf ppf "if(w%d, %#x/%#x)" warp then_mask else_mask
  | Else { warp; mask } -> Format.fprintf ppf "else(w%d, %#x)" warp mask
  | Fi { warp; mask } -> Format.fprintf ppf "fi(w%d, %#x)" warp mask
  | Bar { block } -> Format.fprintf ppf "bar(b%d)" block
  | Atm { tid; loc; _ } -> Format.fprintf ppf "atm(t%d, %a)" tid Loc.pp loc
  | Acq { tid; loc; scope } ->
      Format.fprintf ppf "acq%a(t%d, %a)" pp_scope scope tid Loc.pp loc
  | Rel { tid; loc; scope } ->
      Format.fprintf ppf "rel%a(t%d, %a)" pp_scope scope tid Loc.pp loc
  | AcqRel { tid; loc; scope } ->
      Format.fprintf ppf "ar%a(t%d, %a)" pp_scope scope tid Loc.pp loc
