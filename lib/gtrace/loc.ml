type t = { space : Ptx.Ast.space; region : int; addr : int }

let make ~space ~region ~addr =
  match space with
  | Ptx.Ast.Global -> { space; region = 0; addr }
  | Ptx.Ast.Shared -> { space; region; addr }
  | Ptx.Ast.Local | Ptx.Ast.Param ->
      invalid_arg "Loc.make: local/param locations cannot race"

let global addr = make ~space:Ptx.Ast.Global ~region:0 ~addr
let shared ~block addr = make ~space:Ptx.Ast.Shared ~region:block ~addr
let with_addr t addr = { t with addr }

let compare a b =
  match Stdlib.compare a.space b.space with
  | 0 -> (
      match Int.compare a.region b.region with
      | 0 -> Int.compare a.addr b.addr
      | c -> c)
  | c -> c

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let to_string t =
  match t.space with
  | Ptx.Ast.Global -> Printf.sprintf "g:%#x" t.addr
  | Ptx.Ast.Shared -> Printf.sprintf "s%d:%#x" t.region t.addr
  | Ptx.Ast.Local | Ptx.Ast.Param -> assert false

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
