type entry = { pc : int; mask : int; reconv : int }
type t = { mutable entries : entry list (* top first; never empty *) }

let create ~pc ~mask = { entries = [ { pc; mask; reconv = max_int } ] }

let top t =
  match t.entries with
  | e :: _ -> e
  | [] -> assert false

let active_mask t = (top t).mask
let pc t = (top t).pc

let set_pc t pc =
  match t.entries with
  | e :: rest -> t.entries <- { e with pc } :: rest
  | [] -> assert false

let diverge t ~reconv ~first:(pc1, m1) ~second:(pc2, m2) =
  let cur = top t in
  if m1 = 0 || m2 = 0 then invalid_arg "Simt_stack.diverge: empty path mask";
  if m1 land m2 <> 0 then invalid_arg "Simt_stack.diverge: overlapping masks";
  if m1 lor m2 <> cur.mask then
    invalid_arg "Simt_stack.diverge: masks do not partition the active set";
  let rest = List.tl t.entries in
  let reconv_entry = { cur with pc = reconv } in
  t.entries <-
    { pc = pc1; mask = m1; reconv }
    :: { pc = pc2; mask = m2; reconv }
    :: reconv_entry :: rest

type pop_result = Switched of entry | Reconverged of entry

let try_pop t =
  let cur = top t in
  if cur.pc <> cur.reconv then None
  else
    match List.tl t.entries with
    | [] -> None (* base entry never pops *)
    | next :: rest ->
        t.entries <- next :: rest;
        (* If [next] shares the same reconvergence point it is the second
           path of the divergence we just finished; otherwise we are back
           at the merged entry. *)
        if next.reconv = cur.reconv then Some (Switched next)
        else Some (Reconverged next)

let retire t lanes =
  t.entries <-
    List.map (fun e -> { e with mask = e.mask land lnot lanes }) t.entries

let is_done t = List.for_all (fun e -> e.mask = 0) t.entries

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "{pc=%d mask=%#x reconv=%s} " e.pc e.mask
        (if e.reconv = max_int then "-" else string_of_int e.reconv))
    t.entries
