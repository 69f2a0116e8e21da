module Sset = Set.Make (String)

type key = {
  space : Ptx.Ast.space;
  base : Ptx.Ast.operand;
  offset : int;
  width : int;
}

module Kset = Set.Make (struct
  type t = key

  let compare = Stdlib.compare
end)

let key_of space width (addr : Ptx.Ast.address) =
  { space; base = addr.Ptx.Ast.base; offset = addr.Ptx.Ast.offset; width }

(* RedCard's rule, kind-aware: a load is redundant after a logged load
   or store of the same address, a store only after a logged store (a
   logged load does not stand in for the write a later store makes). *)
let access_key = function
  | Ptx.Ast.Ld { space; width; addr; _ } ->
      Some (`Load, key_of space width addr)
  | Ptx.Ast.St { space; width; addr; _ } ->
      Some (`Store, key_of space width addr)
  | Ptx.Ast.Atom _ ->
      (* atomics are never pruned: every RMW is a distinct event *)
      None
  | _ -> None

let base_register key =
  match key.base with Ptx.Ast.Reg r -> Some r | _ -> None

let redundant ?exclude (k : Ptx.Ast.kernel) =
  let g = Cfg.Graph.of_kernel k in
  let n = Array.length k.Ptx.Ast.body in
  let excluded i =
    match exclude with Some mask -> mask.(i) | None -> false
  in
  let out = Array.make n false in
  Array.iter
    (fun (b : Cfg.Graph.block) ->
      (* addresses with a logged access of any kind / a logged store *)
      let accessed = ref Kset.empty and stored = ref Kset.empty in
      for i = b.Cfg.Graph.first to b.Cfg.Graph.last do
        let insn = k.Ptx.Ast.body.(i) in
        (* Fences and barriers reset the window: accesses around them
           have synchronization roles that must stay visible. *)
        (match insn.Ptx.Ast.kind with
        | Ptx.Ast.Membar _ | Ptx.Ast.Bar_sync _ ->
            accessed := Kset.empty;
            stored := Kset.empty
        | _ -> ());
        (* Guarded accesses execute under a mask that may differ from the
           earlier access, so they are never pruned. *)
        (match access_key insn.Ptx.Ast.kind with
        | Some (kind, key) when insn.Ptx.Ast.guard = None && not (excluded i)
          ->
            let witnesses =
              match kind with `Load -> !accessed | `Store -> !stored
            in
            if Kset.mem key witnesses then out.(i) <- true
            else begin
              accessed := Kset.add key !accessed;
              if kind = `Store then stored := Kset.add key !stored
            end
        | Some _ | None -> ());
        (* Overwriting a register kills the keys based on it. *)
        match Ptx.Ast.register_written insn with
        | Some r ->
            let live key = base_register key <> Some r in
            accessed := Kset.filter live !accessed;
            stored := Kset.filter live !stored
        | None -> ()
      done)
    (Cfg.Graph.blocks g);
  out
