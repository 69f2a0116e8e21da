type key = { kname : string; klabels : (string * string) list }

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  metric : Metric.t;
}

type t = {
  lock : Mutex.t;
  tbl : (key, sample) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()
let set_enabled = Metric.set_enabled
let enabled = Metric.enabled

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Metric.Counter _ -> "counter"
  | Metric.Gauge _ -> "gauge"
  | Metric.Histogram _ -> "histogram"

(* Find-or-register under the lock; the returned handle is then used
   lock-free. *)
let register t ~help ~labels name make same_kind =
  let key = { kname = name; klabels = normalize_labels labels } in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some s -> (
          match same_kind s.metric with
          | Some m -> m
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Telemetry.Registry: %s already registered as a %s" name
                   (kind_name s.metric)))
      | None ->
          let m = make () in
          Hashtbl.add t.tbl key
            {
              name;
              help;
              labels = key.klabels;
              metric =
                (match m with
                | `C c -> Metric.Counter c
                | `G g -> Metric.Gauge g
                | `H h -> Metric.Histogram h);
            };
          m)

let counter ?(help = "") ?(labels = []) t name =
  match
    register t ~help ~labels name
      (fun () -> `C (Metric.make_counter ()))
      (function Metric.Counter c -> Some (`C c) | _ -> None)
  with
  | `C c -> c
  | _ -> assert false

let gauge ?(help = "") ?(labels = []) t name =
  match
    register t ~help ~labels name
      (fun () -> `G (Metric.make_gauge ()))
      (function Metric.Gauge g -> Some (`G g) | _ -> None)
  with
  | `G g -> g
  | _ -> assert false

let histogram ?(help = "") ?(labels = []) ~bounds t name =
  match
    register t ~help ~labels name
      (fun () -> `H (Metric.make_histogram ~bounds))
      (function Metric.Histogram h -> Some (`H h) | _ -> None)
  with
  | `H h -> h
  | _ -> assert false

let reset t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> Hashtbl.iter (fun _ s -> Metric.reset s.metric) t.tbl)

let compare_sample a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot t =
  Mutex.lock t.lock;
  let all =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl [])
  in
  List.sort compare_sample all

let find t ~labels name =
  let key = { kname = name; klabels = normalize_labels labels } in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> Hashtbl.find_opt t.tbl key)

let find_counter ?(labels = []) t name =
  match find t ~labels name with
  | Some { metric = Metric.Counter c; _ } -> Metric.counter_value c
  | _ -> 0

let find_gauge ?(labels = []) t name =
  match find t ~labels name with
  | Some { metric = Metric.Gauge g; _ } -> Metric.gauge_value g
  | _ -> 0

