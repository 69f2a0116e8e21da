type block = { id : int; first : int; last : int; succs : int list }

type t = {
  kernel : Ptx.Ast.kernel;
  blocks : block array;
  exit_node : int;
  block_of : int array; (* insn index -> block id *)
  preds : int list array; (* indexed by block id, incl. exit node *)
}

let kernel t = t.kernel
let blocks t = t.blocks
let exit_node t = t.exit_node
let block_of_insn t i = t.block_of.(i)
let preds t b = t.preds.(b)
let succs t b = if b = t.exit_node then [] else t.blocks.(b).succs

let terminator_kind (k : Ptx.Ast.kernel) i = k.body.(i).Ptx.Ast.kind

let of_kernel (k : Ptx.Ast.kernel) =
  let n = Array.length k.body in
  if n = 0 then invalid_arg "Graph.of_kernel: empty kernel";
  let labels = Ptx.Ast.label_index k in
  let target_of l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "branch to unknown label %s" l)
  in
  (* Leaders: entry, label carriers, and instructions after terminators. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun i insn ->
      if insn.Ptx.Ast.label <> None then leader.(i) <- true;
      match insn.Ptx.Ast.kind with
      | Ptx.Ast.Bra { target; _ } ->
          leader.(target_of target) <- true;
          if i + 1 < n then leader.(i + 1) <- true
      | Ptx.Ast.Ret | Ptx.Ast.Exit -> if i + 1 < n then leader.(i + 1) <- true
      | _ -> ())
    k.body;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let exit_node = nb in
  let block_of = Array.make n 0 in
  let bounds =
    Array.mapi
      (fun bi first ->
        let last = if bi + 1 < nb then starts.(bi + 1) - 1 else n - 1 in
        for i = first to last do
          block_of.(i) <- bi
        done;
        (first, last))
      starts
  in
  let blocks =
    Array.mapi
      (fun bi (first, last) ->
        let succs =
          match terminator_kind k last with
          | Ptx.Ast.Ret | Ptx.Ast.Exit -> [ exit_node ]
          | Ptx.Ast.Bra { target; _ } ->
              let tgt = block_of.(target_of target) in
              let conditional = k.body.(last).Ptx.Ast.guard <> None in
              if conditional && last + 1 < n then
                let ft = block_of.(last + 1) in
                if ft = tgt then [ tgt ] else [ tgt; ft ]
              else [ tgt ]
          | _ ->
              (* fallthrough; a block ending at the last instruction
                 without a terminator falls off the kernel = implicit ret *)
              if last + 1 < n then [ block_of.(last + 1) ] else [ exit_node ]
        in
        { id = bi; first; last; succs })
      bounds
  in
  let preds = Array.make (nb + 1) [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) b.succs)
    blocks;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  { kernel = k; blocks; exit_node; block_of; preds }

let is_conditional_branch t i =
  match t.kernel.Ptx.Ast.body.(i).Ptx.Ast.kind with
  | Ptx.Ast.Bra _ ->
      t.kernel.Ptx.Ast.body.(i).Ptx.Ast.guard <> None
      && List.length t.blocks.(t.block_of.(i)).succs = 2
  | _ -> false

let pp ppf t =
  Array.iter
    (fun b ->
      Format.fprintf ppf "B%d [%d..%d] -> %a@\n" b.id b.first b.last
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_int)
        b.succs)
    t.blocks
