(* The enabled flag is the no-op sink switch: a single atomic load
   guards every update, so a disabled metric costs one branch. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* -------------------------------------------------------------- *)

type counter = int Atomic.t

let make_counter () = Atomic.make 0
let counter_incr c = if enabled () then Atomic.incr c

let counter_add c n =
  if enabled () && n <> 0 then ignore (Atomic.fetch_and_add c n)

let counter_value = Atomic.get
let counter_reset c = Atomic.set c 0

(* -------------------------------------------------------------- *)

type gauge = int Atomic.t

let make_gauge () = Atomic.make 0
let gauge_set g v = if enabled () then Atomic.set g v

let rec max_loop g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then max_loop g v

let gauge_max g v = if enabled () then max_loop g v
let gauge_value = Atomic.get
let gauge_reset g = Atomic.set g 0

(* -------------------------------------------------------------- *)

type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  buckets : int Atomic.t array; (* length bounds + 1; last = overflow *)
  count : int Atomic.t;
  sum_bits : int64 Atomic.t; (* float sum as IEEE bits, CAS-updated *)
}

let make_histogram ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metric.make_histogram: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metric.make_histogram: bounds not strictly increasing"
  done;
  {
    bounds = Array.copy bounds;
    buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum_bits = Atomic.make (Int64.bits_of_float 0.0);
  }

let rec add_to_sum a x =
  let cur = Atomic.get a in
  let next = Int64.bits_of_float (Int64.float_of_bits cur +. x) in
  if not (Atomic.compare_and_set a cur next) then add_to_sum a x

(* First bucket whose upper bound admits [v]; binary search keeps the
   hot path O(log buckets) with no allocation. *)
let bucket_of h v =
  let lo = ref 0 and hi = ref (Array.length h.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let histogram_observe h v =
  if enabled () then begin
    Atomic.incr h.buckets.(bucket_of h v);
    Atomic.incr h.count;
    add_to_sum h.sum_bits v
  end

let histogram_bounds h = Array.copy h.bounds
let histogram_counts h = Array.map Atomic.get h.buckets
let histogram_sum h = Int64.float_of_bits (Atomic.get h.sum_bits)
let histogram_count h = Atomic.get h.count

let histogram_reset h =
  Array.iter (fun b -> Atomic.set b 0) h.buckets;
  Atomic.set h.count 0;
  Atomic.set h.sum_bits (Int64.bits_of_float 0.0)

(* -------------------------------------------------------------- *)

type t =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let reset = function
  | Counter c -> counter_reset c
  | Gauge g -> gauge_reset g
  | Histogram h -> histogram_reset h
