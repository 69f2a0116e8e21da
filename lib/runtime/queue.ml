(* Aggregate telemetry across all queues of the process: committed
   records, consumed records, and the deepest backlog as a live gauge.
   Handles register at module initialisation (the registry dedupes by
   name under its mutex), so queues on any domain share them without
   a first-use race; a program that never enables telemetry only pays
   the disabled-flag check inside each update. *)
let m_pushes =
  Telemetry.Registry.counter
    ~help:"Records committed into GPU->host log queues"
    Telemetry.Registry.default "barracuda_queue_pushes_total"

let m_pops =
  Telemetry.Registry.counter
    ~help:"Records consumed from GPU->host log queues"
    Telemetry.Registry.default "barracuda_queue_pops_total"

let m_high =
  Telemetry.Registry.gauge
    ~help:"Deepest backlog observed across all queues"
    Telemetry.Registry.default "barracuda_queue_high_watermark"

let m_stalls =
  Telemetry.Registry.counter
    ~help:"Producer stalls on full queues"
    Telemetry.Registry.default "barracuda_queue_stalls_total"

type t = {
  capacity : int;
  buf : Bytes.t; (* capacity * Barracuda.Wire.max_cell_size, one contiguous ring *)
  write_head : int Atomic.t; (* next reservable virtual index *)
  commit_index : int Atomic.t; (* records visible to the consumer *)
  read_head : int Atomic.t; (* next record to consume *)
  high : int Atomic.t;
  stalls : int Atomic.t; (* producer backoff escalations *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Queue.create: capacity <= 0";
  {
    capacity;
    buf = Bytes.make (capacity * Barracuda.Wire.max_cell_size) '\000';
    write_head = Atomic.make 0;
    commit_index = Atomic.make 0;
    read_head = Atomic.make 0;
    high = Atomic.make 0;
    stalls = Atomic.make 0;
  }

let capacity t = t.capacity
let buffer t = t.buf
let offset_of t w = w mod t.capacity * Barracuda.Wire.max_cell_size

let rec bump_high t backlog =
  let cur = Atomic.get t.high in
  if backlog > cur && not (Atomic.compare_and_set t.high cur backlog) then
    bump_high t backlog

(* Top-level recursion, not a local [let rec]: a closure over [t] here
   would charge every reservation its allocation. *)
let rec try_reserve t =
  let w = Atomic.get t.write_head in
  if w - Atomic.get t.read_head >= t.capacity then -1
  else if Atomic.compare_and_set t.write_head w (w + 1) then w
  else try_reserve t

(* Bounded exponential backoff for producer stall loops: spin briefly
   (a competing producer is usually mid-publish), then escalate to
   capped sleeps instead of burning a core.  Escalations are counted in
   the queue's stall stat and the process-wide stall counter. *)
let spin_budget = 64
let backoff_floor = 1e-6 (* seconds *)
let backoff_ceiling = 1e-3

let stall_backoff t attempt =
  if attempt < spin_budget then Domain.cpu_relax ()
  else begin
    Atomic.incr t.stalls;
    Telemetry.Metric.counter_incr m_stalls;
    let e = attempt - spin_budget in
    let d = backoff_floor *. (2. ** float_of_int (if e > 10 then 10 else e)) in
    Unix.sleepf (if d > backoff_ceiling then backoff_ceiling else d)
  end

let commit t w =
  (* Publish in reservation order: wait for earlier producers. *)
  if not (Atomic.compare_and_set t.commit_index w (w + 1)) then begin
    let attempt = ref 0 in
    while not (Atomic.compare_and_set t.commit_index w (w + 1)) do
      stall_backoff t !attempt;
      incr attempt
    done
  end;
  let backlog = w + 1 - Atomic.get t.read_head in
  bump_high t backlog;
  Telemetry.Metric.counter_incr m_pushes;
  Telemetry.Metric.gauge_max m_high backlog

let peek t =
  let r = Atomic.get t.read_head in
  if r >= Atomic.get t.commit_index then -1 else offset_of t r

let release t =
  let r = Atomic.get t.read_head in
  if r < Atomic.get t.commit_index then begin
    Atomic.set t.read_head (r + 1);
    Telemetry.Metric.counter_incr m_pops
  end

let read_index t = Atomic.get t.read_head

let push_into t f =
  match try_reserve t with
  | -1 -> false
  | w ->
      f t.buf (offset_of t w);
      commit t w;
      true

let consume t f =
  let off = peek t in
  if off < 0 then None
  else begin
    let x = f t.buf off in
    release t;
    Some x
  end

let length t = Atomic.get t.commit_index - Atomic.get t.read_head
let pushed t = Atomic.get t.commit_index
let high_watermark t = Atomic.get t.high
let stalls t = Atomic.get t.stalls
