module Layout = Vclock.Layout
module Loc = Gtrace.Loc
module Report = Barracuda.Report

type config = { max_predictions : int; validate : bool }

let default_config = { max_predictions = 256; validate = true }

(* Conflicting pairs examined at most; the rest count as dropped. *)
let max_pairs = 4_000_000

type status = Observed | Confirmed | Unconfirmed

type prediction = {
  loc : Loc.t;
  first : Graph.access;
  second : Graph.access;
  status : status;
  witness : Witness.t option;  (** [None] for observed races *)
}

type t = {
  layout : Layout.t;
  config : config;
  op_count : int;
  access_count : int;
  location_count : int;
  pairs_examined : int;
  pairs_dropped : int;
  observed_race_count : int;
  predictions : prediction list;
}

let m_pairs =
  Telemetry.Registry.counter
    ~help:"Conflicting access pairs examined by the predictor"
    Telemetry.Registry.default "barracuda_predict_pairs_total"

let m_predictions =
  Telemetry.Registry.counter
    ~help:"Schedule-sensitive race predictions emitted"
    Telemetry.Registry.default "barracuda_predict_predictions_total"

let m_confirmed =
  Telemetry.Registry.counter
    ~help:"Predictions confirmed by witness replay"
    Telemetry.Registry.default "barracuda_predict_confirmed_total"

let m_observed =
  Telemetry.Registry.counter
    ~help:"Unordered pairs already reported by the recorded order"
    Telemetry.Registry.default "barracuda_predict_observed_total"

let span_graph = Telemetry.Span.create "predict.graph"
let span_enumerate = Telemetry.Span.create "predict.enumerate"
let span_witness = Telemetry.Span.create "predict.witness"

(* The races the recorded schedule already exposes, keyed like the
   report's dedup (location + unordered thread pair). *)
let observed_races ~layout ops =
  let r = Barracuda.Reference.create ~max_reports:10_000 ~layout () in
  Barracuda.Reference.run r ops;
  let report = Barracuda.Reference.report r in
  let seen = Hashtbl.create 32 in
  List.iter
    (function
      | Report.Race r ->
          let t1 = min r.Report.prev_tid r.Report.cur_tid
          and t2 = max r.Report.prev_tid r.Report.cur_tid in
          Hashtbl.replace seen (r.Report.loc, t1, t2) ()
      | Report.Barrier_divergence _ -> ())
    (Report.errors report);
  (seen, Report.race_count report)

let run ?(config = default_config) ~layout ops =
  let graph =
    Telemetry.Span.with_h span_graph (fun () ->
        Graph.build ~layout ops)
  in
  let observed, observed_race_count = observed_races ~layout ops in
  let pairs_examined = ref 0 in
  let pairs_dropped = ref 0 in
  let predictions = ref [] in
  let n_predictions = ref 0 in
  let dedup = Hashtbl.create 64 in
  let candidates =
    Telemetry.Span.with_h span_enumerate (fun () ->
        let out = ref [] in
        Loc.Tbl.iter
          (fun _loc accs ->
            let arr = Array.of_list accs in
            let m = Array.length arr in
            for j = 1 to m - 1 do
              for i = 0 to j - 1 do
                let a = arr.(i) and b = arr.(j) in
                if Graph.conflicting a b then
                  if !pairs_examined >= max_pairs then
                    incr pairs_dropped
                  else begin
                    incr pairs_examined;
                    (* same-instruction same-value plain writes are
                       benign, as the online detector's filter says *)
                    if
                      (not (Graph.ordered a b))
                      && not (Graph.same_value_benign a b)
                    then begin
                      let t1 = min a.Graph.tid b.Graph.tid
                      and t2 = max a.Graph.tid b.Graph.tid in
                      let key =
                        (a.Graph.loc, t1, t2, Graph.is_atomic a,
                         Graph.is_atomic b)
                      in
                      if not (Hashtbl.mem dedup key) then begin
                        Hashtbl.replace dedup key ();
                        out := (a, b) :: !out
                      end
                    end
                  end
              done
            done)
          graph.Graph.by_loc;
        List.rev !out)
  in
  List.iter
    (fun ((a : Graph.access), (b : Graph.access)) ->
      if !n_predictions >= config.max_predictions then incr pairs_dropped
      else begin
        incr n_predictions;
        let t1 = min a.Graph.tid b.Graph.tid
        and t2 = max a.Graph.tid b.Graph.tid in
        let p =
          if Hashtbl.mem observed (a.Graph.loc, t1, t2) then
            { loc = a.Graph.loc; first = a; second = b; status = Observed;
              witness = None }
          else
            let w =
              Telemetry.Span.with_h span_witness (fun () ->
                  Witness.generate ~validate:config.validate graph a b)
            in
            let status =
              if w.Witness.confirmed then Confirmed else Unconfirmed
            in
            { loc = a.Graph.loc; first = a; second = b; status;
              witness = Some w }
        in
        predictions := p :: !predictions
      end)
    candidates;
  let predictions = List.rev !predictions in
  let count st = List.length (List.filter (fun p -> p.status = st) predictions) in
  Telemetry.Metric.counter_add m_pairs !pairs_examined;
  Telemetry.Metric.counter_add m_predictions
    (List.length predictions);
  Telemetry.Metric.counter_add m_confirmed (count Confirmed);
  Telemetry.Metric.counter_add m_observed (count Observed);
  {
    layout;
    config;
    op_count = Array.length graph.Graph.ops;
    access_count = Array.length graph.Graph.accesses;
    location_count = Loc.Tbl.length graph.Graph.by_loc;
    pairs_examined = !pairs_examined;
    pairs_dropped = !pairs_dropped;
    observed_race_count;
    predictions;
  }

let count t st = List.length (List.filter (fun p -> p.status = st) t.predictions)
let confirmed_count t = count t Confirmed
let unconfirmed_count t = count t Unconfirmed
let observed_pair_count t = count t Observed
let predicted_count t = confirmed_count t + unconfirmed_count t
let has_race t = t.observed_race_count > 0 || t.predictions <> []

let status_string = function
  | Observed -> "observed"
  | Confirmed -> "confirmed"
  | Unconfirmed -> "unconfirmed"

let kind_string = function
  | Report.Read -> "read"
  | Report.Write -> "write"
  | Report.Atomic_rmw -> "atomic"

let pp_access ppf (a : Graph.access) =
  Format.fprintf ppf "%s(t%d@@%d)" (kind_string a.Graph.kind) a.Graph.tid
    a.Graph.index

let pp ppf t =
  Format.fprintf ppf
    "predict: %d ops, %d accesses on %d locations (%d blocks x %d threads)@,"
    t.op_count t.access_count t.location_count t.layout.Layout.blocks
    t.layout.Layout.threads_per_block;
  Format.fprintf ppf "recorded-order replay: %d race%s@," t.observed_race_count
    (if t.observed_race_count = 1 then "" else "s");
  Format.fprintf ppf
    "examined %d conflicting pairs%s: %d unordered (%d confirmed, %d \
     unconfirmed, %d already observed)"
    t.pairs_examined
    (if t.pairs_dropped > 0 then
       Printf.sprintf " (%d dropped by caps)" t.pairs_dropped
     else "")
    (List.length t.predictions)
    (confirmed_count t) (unconfirmed_count t) (observed_pair_count t);
  List.iteri
    (fun i p ->
      Format.fprintf ppf "@,  #%d %-11s %a  %a <-> %a" (i + 1)
        (String.uppercase_ascii (status_string p.status))
        Loc.pp p.loc pp_access p.first pp_access p.second;
      match p.witness with
      | Some w when not w.Witness.feasible ->
          Format.fprintf ppf "  [witness infeasible]"
      | Some w ->
          Format.fprintf ppf "  [witness: %d ops, feasible]"
            (List.length w.Witness.ops)
      | None -> ())
    t.predictions

let to_string t = Format.asprintf "@[<v>%a@]" pp t

let json_of_access (a : Graph.access) =
  Telemetry.Json.Obj
    [
      ("index", Telemetry.Json.Int a.Graph.index);
      ("tid", Telemetry.Json.Int a.Graph.tid);
      ("kind", Telemetry.Json.Str (kind_string a.Graph.kind));
    ]

let to_json t =
  let open Telemetry.Json in
  Obj
    [
      ( "layout",
        Obj
          [
            ("warp_size", Int t.layout.Layout.warp_size);
            ("threads_per_block", Int t.layout.Layout.threads_per_block);
            ("blocks", Int t.layout.Layout.blocks);
          ] );
      ("ops", Int t.op_count);
      ("accesses", Int t.access_count);
      ("locations", Int t.location_count);
      ("pairs_examined", Int t.pairs_examined);
      ("pairs_dropped", Int t.pairs_dropped);
      ("observed_races", Int t.observed_race_count);
      ("predicted", Int (predicted_count t));
      ("confirmed", Int (confirmed_count t));
      ("unconfirmed", Int (unconfirmed_count t));
      ( "predictions",
        List
          (List.map
             (fun p ->
               Obj
                 ([
                    ("loc", Str (Format.asprintf "%a" Loc.pp p.loc));
                    ("status", Str (status_string p.status));
                    ("first", json_of_access p.first);
                    ("second", json_of_access p.second);
                  ]
                 @
                 match p.witness with
                 | Some w ->
                     [
                       ("witness_ops", Int (List.length w.Witness.ops));
                       ("witness_feasible", Bool w.Witness.feasible);
                     ]
                 | None -> []))
             t.predictions) );
    ]
