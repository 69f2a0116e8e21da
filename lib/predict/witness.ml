module Op = Gtrace.Op
module Loc = Gtrace.Loc

type t = {
  first : Graph.access;
  second : Graph.access;
  order : int array;
  ops : Op.t list;
  feasible : bool;
  violation : Gtrace.Feasible.violation option;
  confirmed : bool;
}

(* Every skeleton edge points to a lower trace index, so increasing
   index order is a valid topological order on any predecessor-closed
   subset: the ancestor cones go first, then the pair, then the rest. *)
let linearize (g : Graph.t) (a : Graph.access) (b : Graph.access) =
  let n = Array.length g.Graph.ops in
  let anc_a = Graph.ancestors g [ a.Graph.index ] in
  let anc_b = Graph.ancestors g [ b.Graph.index ] in
  let order = Array.make n (-1) in
  let pos = ref 0 in
  let emit i =
    order.(!pos) <- i;
    incr pos
  in
  let emitted = Array.make n false in
  let emit_once i =
    if not emitted.(i) then begin
      emitted.(i) <- true;
      emit i
    end
  in
  (if anc_b.(a.Graph.index) then
     (* a is a skeleton ancestor of b: keep their trace order, close the
        gap by emitting only b's ancestor cone before b. *)
     for i = 0 to n - 1 do
       if anc_b.(i) then emit_once i
     done
   else if anc_a.(b.Graph.index) then
     for i = 0 to n - 1 do
       if anc_a.(i) then emit_once i
     done
   else
     for i = 0 to n - 1 do
       if (anc_a.(i) || anc_b.(i)) && i <> a.Graph.index && i <> b.Graph.index
       then emit_once i
     done);
  let x, y =
    if anc_b.(a.Graph.index) then (a, b)
    else if anc_a.(b.Graph.index) then (b, a)
    else if a.Graph.index < b.Graph.index then (a, b)
    else (b, a)
  in
  emit_once x.Graph.index;
  emit_once y.Graph.index;
  for i = 0 to n - 1 do
    if not emitted.(i) then emit_once i
  done;
  order

let races_pair (report : Barracuda.Report.t) loc t1 t2 =
  List.exists
    (function
      | Barracuda.Report.Race r ->
          Loc.equal r.Barracuda.Report.loc loc
          && ((r.Barracuda.Report.prev_tid = t1
               && r.Barracuda.Report.cur_tid = t2)
             || (r.Barracuda.Report.prev_tid = t2
                && r.Barracuda.Report.cur_tid = t1))
      | Barracuda.Report.Barrier_divergence _ -> false)
    (Barracuda.Report.errors report)

let generate ?(validate = true) (g : Graph.t) (a : Graph.access)
    (b : Graph.access) =
  let order = linearize g a b in
  let ops = Array.to_list (Array.map (fun i -> g.Graph.ops.(i)) order) in
  let feasible, violation =
    match Gtrace.Feasible.check ~layout:g.Graph.layout ops with
    | Ok () -> (true, None)
    | Error v -> (false, Some v)
  in
  let confirmed =
    validate && feasible
    &&
    (* Self-validation: replay the witness through the unmodified
       reference detector; the prediction stands only if the recorded
       pair races in the reordered schedule. *)
    let r =
      Barracuda.Reference.create ~max_reports:10_000 ~layout:g.Graph.layout ()
    in
    Barracuda.Reference.run r ops;
    races_pair (Barracuda.Reference.report r) a.Graph.loc a.Graph.tid
      b.Graph.tid
  in
  { first = a; second = b; order; ops; feasible; violation; confirmed }

let to_string (g : Graph.t) w =
  Gtrace.Serialize.to_string ~layout:g.Graph.layout w.ops
