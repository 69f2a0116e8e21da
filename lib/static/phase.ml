(* Barrier-interval phases.

   A "chain barrier" is a bar.sync that (a) carries no guard, (b) sits
   in a block that dominates the exit node, and (c) sits in a block
   that is not part of any CFG cycle.  Chain barriers therefore execute
   exactly once per thread, in dominance order, and partition every
   thread's execution into the same sequence of phases.  An access with
   max_phase strictly below another access's min_phase is ordered
   before it for *every* pair of same-block threads: the barrier
   between the two phases merges all warp clocks of the block.

   The block edges used here are NOT Cfg.Graph's: a block ending in a
   guarded ret/exit additionally gets its fallthrough successor, since
   threads whose predicate is false continue past it.  Graph.of_kernel
   models only the exit edge, which is fine for reconvergence but would
   be unsound for must-execute reasoning. *)

type t = {
  nblocks : int;
  exit_node : int;
  block_of : int -> int;
  succs : int list array; (* adjusted edges, indexed by block, incl. exit *)
  preds : int list array;
  doms : Cfg.Dominance.t;
  reach : bool array array; (* reach.(a).(b): path a -> b (possibly empty) *)
  chain : (int * int) list; (* (block, insn) of chain barriers, in order *)
  all_chained : bool; (* every bar.sync in the kernel is a chain barrier *)
  min_phase : int array; (* per insn *)
  max_phase : int array;
  reachable : bool array; (* per block, from entry over adjusted edges *)
}

let adjusted_edges (k : Ptx.Ast.kernel) (g : Cfg.Graph.t) =
  let blocks = Cfg.Graph.blocks g in
  let nb = Array.length blocks in
  let exit_node = Cfg.Graph.exit_node g in
  let n = Array.length k.Ptx.Ast.body in
  let succs = Array.make (nb + 1) [] in
  Array.iter
    (fun (b : Cfg.Graph.block) ->
      let extra =
        match k.Ptx.Ast.body.(b.Cfg.Graph.last) with
        | { Ptx.Ast.kind = Ptx.Ast.Ret | Ptx.Ast.Exit; guard = Some _; _ }
          when b.Cfg.Graph.last + 1 < n ->
            let ft = Cfg.Graph.block_of_insn g (b.Cfg.Graph.last + 1) in
            if List.mem ft b.Cfg.Graph.succs then [] else [ ft ]
        | _ -> []
      in
      succs.(b.Cfg.Graph.id) <- b.Cfg.Graph.succs @ extra)
    blocks;
  let preds = Array.make (nb + 1) [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  (succs, preds, nb, exit_node)

let build (k : Ptx.Ast.kernel) (g : Cfg.Graph.t) =
  let succs, preds, nb, exit_node = adjusted_edges k g in
  let nodes = nb + 1 in
  let doms =
    Cfg.Dominance.compute ~nodes ~root:0
      ~succs:(fun b -> succs.(b))
      ~preds:(fun b -> preds.(b))
  in
  (* reflexive-transitive reachability over adjusted edges *)
  let reach = Array.make_matrix nodes nodes false in
  for src = 0 to nodes - 1 do
    let rec dfs b =
      if not reach.(src).(b) then begin
        reach.(src).(b) <- true;
        List.iter dfs succs.(b)
      end
    in
    dfs src
  done;
  let reachable = Array.init nodes (fun b -> reach.(0).(b)) in
  let in_cycle b = List.exists (fun s -> reach.(s).(b)) succs.(b) in
  let block_of i = Cfg.Graph.block_of_insn g i in
  (* classify barriers *)
  let chain = ref [] and stray = ref false in
  Array.iteri
    (fun i insn ->
      match insn.Ptx.Ast.kind with
      | Ptx.Ast.Bar_sync _ ->
          let b = block_of i in
          if
            insn.Ptx.Ast.guard = None
            && Cfg.Dominance.dominates doms b exit_node
            && (not (in_cycle b))
            && reachable.(b)
          then chain := (b, i) :: !chain
          else if reachable.(b) then stray := true
      | _ -> ())
    k.Ptx.Ast.body;
  (* chain barriers all dominate exit, so dominance totally orders
     their blocks; same-block ties break on instruction index *)
  let chain =
    List.sort
      (fun (ba, ia) (bb, ib) ->
        if ba = bb then compare ia ib
        else if Cfg.Dominance.dominates doms ba bb then -1
        else 1)
      !chain
  in
  let n = Array.length k.Ptx.Ast.body in
  let min_phase = Array.make n 0 and max_phase = Array.make n 0 in
  for i = 0 to n - 1 do
    let bi = block_of i in
    List.iter
      (fun (bs, is_) ->
        let before_min =
          if bs = bi then is_ < i else Cfg.Dominance.dominates doms bs bi
        in
        (* can [i] execute after barrier [is_]?  Same block: only if the
           barrier is textually earlier (chain blocks are acyclic).
           Different block: only if [bi] is reachable from a successor
           of the barrier's block. *)
        let before_max =
          if bs = bi then is_ < i
          else List.exists (fun s -> reach.(s).(bi)) succs.(bs)
        in
        if before_min then min_phase.(i) <- min_phase.(i) + 1;
        if before_max then max_phase.(i) <- max_phase.(i) + 1)
      chain
  done;
  {
    nblocks = nb;
    exit_node;
    block_of;
    succs;
    preds;
    doms;
    reach;
    chain;
    all_chained = not !stray;
    min_phase;
    max_phase;
    reachable;
  }

let preds t b = t.preds.(b)

(* Every execution of [a] precedes the barrier that every execution of
   [b] follows — a block-wide happens-before edge for same-block
   threads. *)
let separated t a b = t.max_phase.(a) < t.min_phase.(b)

let pinned t i =
  if t.min_phase.(i) = t.max_phase.(i) then Some t.min_phase.(i) else None

let all_chained t = t.all_chained
let dominates_exit t ~block = Cfg.Dominance.dominates t.doms block t.exit_node
let block_reachable t b = t.reachable.(b)
let barriers t = t.chain
