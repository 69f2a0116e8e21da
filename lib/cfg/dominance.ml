type t = {
  idom : int option array; (* immediate dominator per node; None at root *)
  root : int;
}

(* Cooper–Harvey–Kennedy "engineered" iterative dominators: nodes in
   reverse post-order, intersect walks up the tree using RPO numbers. *)
let compute ~nodes ~root ~succs ~preds =
  let rpo = Array.make nodes (-1) in
  let order = ref [] in
  let visited = Array.make nodes false in
  let rec dfs n =
    if not visited.(n) then begin
      visited.(n) <- true;
      List.iter dfs (succs n);
      order := n :: !order
    end
  in
  dfs root;
  let rpo_list = !order in
  List.iteri (fun i n -> rpo.(n) <- i) rpo_list;
  let idom = Array.make nodes (-1) in
  idom.(root) <- root;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo.(!a) > rpo.(!b) do
        a := idom.(!a)
      done;
      while rpo.(!b) > rpo.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if n <> root then begin
          let processed = List.filter (fun p -> idom.(p) >= 0) (preds n) in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(n) <> new_idom then begin
                idom.(n) <- new_idom;
                changed := true
              end
        end)
      rpo_list
  done;
  let idom_opt =
    Array.mapi
      (fun n d -> if n = root || d < 0 then None else Some d)
      idom
  in
  { idom = idom_opt; root }

let dominators g =
  let nodes = Array.length (Graph.blocks g) + 1 in
  compute ~nodes ~root:0
    ~succs:(fun n -> Graph.succs g n)
    ~preds:(fun n -> Graph.preds g n)

let post_dominators g =
  let nodes = Array.length (Graph.blocks g) + 1 in
  compute ~nodes ~root:(Graph.exit_node g)
    ~succs:(fun n -> Graph.preds g n)
    ~preds:(fun n -> Graph.succs g n)

let idom t n = t.idom.(n)

let dominates t a b =
  let rec up n = n = a || (n <> t.root && match t.idom.(n) with
    | Some d -> up d
    | None -> false)
  in
  up b

let reconvergence_block g pdoms i =
  if not (Graph.is_conditional_branch g i) then
    invalid_arg "reconvergence_block: not a conditional branch";
  let b = Graph.block_of_insn g i in
  match idom pdoms b with
  | Some d -> d
  | None ->
      (* a branch that never reaches an exit has no post-dominator;
         [reconvergence_pcs] reports it as an ill-formed kernel *)
      invalid_arg "reconvergence_block: branch block unreachable from exit"

(* A conditional branch whose block has no post-dominator can never
   reach an exit: [Ptx.Validate] cannot see that, so it is reported
   here, in its format. *)
let reconvergence_pcs k =
  let g = Graph.of_kernel k in
  let pdoms = post_dominators g in
  let n = Array.length k.Ptx.Ast.body in
  let stuck =
    List.filter_map
      (fun index ->
        if
          Graph.is_conditional_branch g index
          && idom pdoms (Graph.block_of_insn g index) = None
        then
          Some
            {
              Ptx.Validate.index;
              message = "conditional branch never reaches an exit";
            }
        else None)
      (List.init n Fun.id)
  in
  if stuck <> [] then Ptx.Validate.fail k stuck;
  Array.init n (fun i ->
      if not (Graph.is_conditional_branch g i) then -1
      else
        let rb = reconvergence_block g pdoms i in
        if rb = Graph.exit_node g then n else (Graph.blocks g).(rb).Graph.first)
