module Wire = Barracuda.Wire
module Queue = Gpu_runtime.Queue

exception Shard_crashed of int

(* Cells in flight per shard ring: ~1.1 MB, zeroed per sharded job. *)
let ring_slots = 2048

(* Producer-side wait for a full ring while its consumer drains
   concurrently: spin briefly, then sleep with a capped exponential
   backoff (50us doubling to ~3ms) instead of a fixed-rate poll. *)
let full_backoff attempt =
  if attempt < 16 then Domain.cpu_relax ()
  else begin
    let e = attempt - 16 in
    let e = if e > 6 then 6 else e in
    Unix.sleepf (0.00005 *. (2. ** float_of_int e))
  end

type t = {
  layout : Vclock.Layout.t;
  detectors : Barracuda.Detector.t array;
  rings : Queue.t array;
  mutable records : int;
  producing : bool Atomic.t;
  failed : bool Atomic.t array;
  mutable consumers : int64 Domain.t array;
  mutable joined : bool;
  mutable detect : int64;
  fault : Fault.Plan.t option;
  m_imbalance : Telemetry.Metric.gauge;
}

(* One shard's consumer: drain the ring into the shard detector until
   the producer is done and the ring is empty.  The ring is SPSC and
   the stream totally ordered by construction, so no cross-queue
   acquire handshake is needed: every shard sees every synchronization
   record at the same position in its stream.  Returns cumulative nanoseconds
   spent inside the detector. *)
let consume t i m_records =
  let q = t.rings.(i) in
  let det = t.detectors.(i) in
  let buf = Queue.buffer q in
  let crash =
    match t.fault with
    | None -> None
    | Some p -> Fault.Plan.shard_crash_after p ~shard:i
  in
  let detect = ref 0 in
  let consumed = ref 0 in
  (try
     let rec loop () =
       let off = Queue.peek q in
       if off >= 0 then begin
         (match crash with
         | Some n when !consumed >= n ->
             (match t.fault with
             | Some p -> Fault.Plan.note_shard_crash p
             | None -> ());
             raise Fault.Plan.Injected_shard_crash
         | _ -> ());
         let t0 = Telemetry.Clock.now_ns () in
         Barracuda.Detector.feed_record det buf ~pos:off;
         detect :=
           !detect + Int64.to_int (Int64.sub (Telemetry.Clock.now_ns ()) t0);
         incr consumed;
         Telemetry.Metric.counter_incr m_records;
         Queue.release q;
         loop ()
       end
       else if Atomic.get t.producing || Queue.length q > 0 then begin
         Unix.sleepf 0.0002;
         loop ()
       end
     in
     loop ()
   with Fault.Plan.Injected_shard_crash -> Atomic.set t.failed.(i) true);
  Int64.of_int !detect

let create ?fault ?(config = Barracuda.Detector.default_config) ~layout
    ~shards plan =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  let router = Router.make ~shards () in
  (* Shards keep every race they own: the report cap applies once, in
     the merge, so the merged race count is the serial detector's
     whatever the cap (a per-shard cap would drop races from the count
     and the shard count would change which races survive it). *)
  let config = { config with Barracuda.Detector.max_reports = max_int } in
  let detectors =
    Array.init shards (fun i ->
        Barracuda.Detector.create ~config ~owns:(Router.owns router ~shard:i)
          ~layout plan)
  in
  let reg = Telemetry.Registry.default in
  let t =
    {
      layout;
      detectors;
      rings = Array.init shards (fun _ -> Queue.create ~capacity:ring_slots);
      records = 0;
      producing = Atomic.make true;
      failed = Array.init shards (fun _ -> Atomic.make false);
      consumers = [||];
      joined = false;
      detect = 0L;
      fault;
      m_imbalance =
        Telemetry.Registry.gauge
          ~help:
            "Busiest shard's share of checked accesses, percent of a \
             perfectly even split (100 = balanced)"
          reg "barracuda_shard_imbalance_pct";
    }
  in
  (* Per-shard drain counters registered before the domains spawn, so
     the mutex-protected registration never races with hot updates. *)
  let m_records =
    Array.init shards (fun i ->
        Telemetry.Registry.counter ~help:"Records consumed per shard"
          ~labels:[ ("shard", string_of_int i) ]
          reg "barracuda_shard_records_total")
  in
  t.consumers <-
    Array.init shards (fun i -> Domain.spawn (fun () -> consume t i m_records.(i)));
  t

let shards t = Array.length t.detectors

let reserve t i =
  let q = t.rings.(i) in
  let rec go attempt =
    (* A dead consumer never drains its ring; raising here keeps a
       doomed job from blocking the producer forever and, more
       importantly, from completing with a partial merge. *)
    if Atomic.get t.failed.(i) then raise (Shard_crashed i);
    let w = Queue.try_reserve q in
    if w >= 0 then w
    else begin
      full_backoff attempt;
      go (attempt + 1)
    end
  in
  go 0

(* Every ring receives the producer's cell byte for byte, seal and
   sequence number included: each ring carries the full stream, so the
   producer's sequence number is the one each shard's detector
   expects. *)
let broadcast t buf ~pos =
  let n = Array.length t.rings in
  for i = 0 to n - 1 do
    let q = t.rings.(i) in
    let w = reserve t i in
    Wire.copy_cell buf ~pos (Queue.buffer q) ~dst_pos:(Queue.offset_of q w);
    Queue.commit q w
  done;
  t.records <- t.records + 1

(* Wait until every ring is fully drained while the consumers keep
   running — the barrier behind streaming checkpoints.
   The producer (the one caller) is quiescent by contract, so once the
   rings are empty every broadcast record has been fed and released;
   reading the ring's consumer index synchronizes with the release, so
   detector state is safe to read until production resumes. *)
let quiesce t =
  Array.iteri
    (fun i q ->
      let rec wait () =
        if Atomic.get t.failed.(i) then raise (Shard_crashed i);
        if Queue.length q > 0 then begin
          Unix.sleepf 0.0002;
          wait ()
        end
      in
      wait ())
    t.rings

let join_all t =
  if not t.joined then begin
    Atomic.set t.producing false;
    let times = Array.map Domain.join t.consumers in
    t.detect <-
      Array.fold_left
        (fun a b -> if Int64.compare a b >= 0 then a else b)
        0L times;
    t.joined <- true;
    if Telemetry.Registry.enabled () then begin
      let checked =
        Array.map
          (fun d -> (Barracuda.Detector.stats d).Barracuda.Detector.accesses_checked)
          t.detectors
      in
      let total = Array.fold_left ( + ) 0 checked in
      let hi = Array.fold_left max 0 checked in
      if total > 0 then
        Telemetry.Metric.gauge_set t.m_imbalance
          (hi * 100 * Array.length checked / total)
    end
  end

let abort t = join_all t

let finish t =
  join_all t;
  Array.iteri (fun i f -> if Atomic.get f then raise (Shard_crashed i)) t.failed

let detectors t = t.detectors

let report t ~max_reports =
  Merge.merged ~layout:t.layout ~max_reports
    (Array.map Barracuda.Detector.report t.detectors)

let detect_ns t = t.detect
let records t = t.records
