type t = { analysis : Analysis.t; drop : bool array }

let make k =
  let analysis = Analysis.analyze k in
  { analysis; drop = Analysis.safe_mask analysis }

let empty p = { p with drop = Array.make (Array.length p.drop) false }
let analysis p = p.analysis
let roles p = Analysis.roles p.analysis

let drops p ~layout =
  if Vclock.Layout.one_dimensional layout then p.drop
  else Array.make (Array.length p.drop) false

(* ---- the process-wide memo --------------------------------------- *)

let memo_capacity = 128
let memo : (Ptx.Ast.kernel, t) Lru.t = Lru.create ~capacity:memo_capacity ()
let of_kernel k = fst (Lru.find_or_build memo k ~build:(fun () -> make k))
