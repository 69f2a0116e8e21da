let calls_name = "barracuda_span_calls_total"
let ns_name = "barracuda_span_ns_total"
let hist_name = "barracuda_span_duration_ms"

(* 1us .. 10s, decades: pipeline stages span queue pushes (sub-us)
   through whole-workload launches (seconds). *)
let duration_ms_bounds =
  [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1_000.0; 10_000.0 |]

type h = {
  sname : string;
  calls : Metric.counter;
  ns : Metric.counter;
  hist : Metric.histogram;
}

let create ?(registry = Registry.default) sname =
  let labels = [ ("span", sname) ] in
  {
    sname;
    calls =
      Registry.counter ~help:"Completed span executions" ~labels registry
        calls_name;
    ns =
      Registry.counter ~help:"Total monotonic span time (ns)" ~labels registry
        ns_name;
    hist =
      Registry.histogram ~help:"Span duration (ms)" ~labels
        ~bounds:duration_ms_bounds registry hist_name;
  }

let name h = h.sname

let record_ns h ns =
  if Metric.enabled () then begin
    Metric.counter_incr h.calls;
    Metric.counter_add h.ns (Int64.to_int ns);
    Metric.histogram_observe h.hist (Clock.ns_to_ms ns)
  end

let with_h h f =
  if not (Metric.enabled ()) then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () -> record_ns h (Clock.elapsed_ns ~since:t0))
      f
  end

let with_ ?registry ~name f = with_h (create ?registry name) f

let totals ?(registry = Registry.default) () =
  let samples = Registry.snapshot registry in
  let value_of name labels =
    List.find_map
      (fun (s : Registry.sample) ->
        match s.Registry.metric with
        | Metric.Counter c
          when s.Registry.name = name && s.Registry.labels = labels ->
            Some (Metric.counter_value c)
        | _ -> None)
      samples
  in
  List.filter_map
    (fun (s : Registry.sample) ->
      match s.Registry.metric with
      | Metric.Counter _ when s.Registry.name = calls_name -> (
          match (s.Registry.labels, value_of calls_name s.Registry.labels) with
          | [ ("span", sname) ], Some calls ->
              let ns =
                Option.value ~default:0 (value_of ns_name s.Registry.labels)
              in
              Some (sname, (calls, Int64.of_int ns))
          | _ -> None)
      | _ -> None)
    samples
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> Int64.compare b a)

type row = {
  stage : string;
  nested : bool;
  calls : int;
  ns : int64;
  share : float;
}

let breakdown ~stages ~wall_ns totals =
  let share ns =
    100.0 *. Int64.to_float ns /. Int64.to_float (Int64.max wall_ns 1L)
  in
  let row ~nested stage (calls, ns) =
    { stage; nested; calls; ns; share = share ns }
  in
  let named ~nested stage =
    row ~nested stage
      (Option.value ~default:(0, 0L) (List.assoc_opt stage totals))
  in
  let listed =
    List.concat_map
      (fun (stage, inner) ->
        named ~nested:false stage :: List.map (named ~nested:true) inner)
      stages
  in
  let others =
    List.filter_map
      (fun (stage, ((calls, _) as t)) ->
        if calls > 0 && not (List.exists (fun r -> r.stage = stage) listed)
        then Some (row ~nested:false stage t)
        else None)
      totals
  in
  let rows = listed @ others in
  let rest =
    List.fold_left
      (fun acc r -> if r.nested then acc else Int64.sub acc r.ns)
      wall_ns rows
  in
  rows @ [ row ~nested:false "unattributed" (0, rest) ]
