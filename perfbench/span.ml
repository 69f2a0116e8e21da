(* Outside-in layer timing.

   The benchmark wraps each call into a layer of the program in a span.
   A span's self time is its duration minus the time of the spans (and
   carved intervals) nested in it, so the self times of one operation's
   spans add up to its wall time, and the root span's self time is the
   residual no layer accounts for.  Spans live in memory, aggregated by
   name; nothing is recorded unless [enable] was called, so untraced
   runs pay one branch per call site. *)

let enabled = ref false

(* self time per span name *)
let table : (string, int64 ref) Hashtbl.t = Hashtbl.create 32

(* open spans, innermost first: time spent in each one's children *)
let stack : int64 ref list ref = ref []

let enable () = enabled := true
let now () = Telemetry.Clock.now_ns ()

let charge_parent ns =
  match !stack with
  | children :: _ -> children := Int64.add !children ns
  | [] -> ()

let record name ~self ~total =
  (match Hashtbl.find_opt table name with
  | Some acc -> acc := Int64.add !acc self
  | None -> Hashtbl.add table name (ref self));
  charge_parent total

let with_ name f =
  if not !enabled then f ()
  else begin
    let children = ref 0L in
    stack := children :: !stack;
    let t0 = now () in
    let finish () =
      let total = Int64.sub (now ()) t0 in
      stack := List.tl !stack;
      record name ~self:(Int64.sub total !children) ~total
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Attribute [ns] of the current span's time to layer [name]: for work
   a layer reports about itself (the detector's own clock inside a
   session run, a daemon's queue wait) rather than work the benchmark
   can wrap. *)
let carve name ns =
  if !enabled then record name ~self:(Int64.max 0L ns) ~total:(Int64.max 0L ns)

let self_ns name =
  match Hashtbl.find_opt table name with Some acc -> !acc | None -> 0L
