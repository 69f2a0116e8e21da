type entry = {
  kernel : Ptx.Ast.kernel;
  analysis : Static.Analysis.t;
}

type slot = { value : entry; mutable last_use : int }

type t = {
  capacity : int;
  index : (string, slot) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Telemetry.Metric.counter;
  m_misses : Telemetry.Metric.counter;
  m_evictions : Telemetry.Metric.counter;
  m_entries : Telemetry.Metric.gauge;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  let reg = Telemetry.Registry.default in
  {
    capacity;
    index = Hashtbl.create (2 * capacity);
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits =
      Telemetry.Registry.counter ~help:"Artifact cache hits" reg
        "barracuda_service_cache_hits_total";
    m_misses =
      Telemetry.Registry.counter ~help:"Artifact cache misses" reg
        "barracuda_service_cache_misses_total";
    m_evictions =
      Telemetry.Registry.counter ~help:"Artifact cache LRU evictions" reg
        "barracuda_service_cache_evictions_total";
    m_entries =
      Telemetry.Registry.gauge ~help:"Artifact cache resident entries" reg
        "barracuda_service_cache_entries";
  }

let capacity t = t.capacity

let key source = Digest.to_hex (Digest.string source)

(* O(capacity) scan on eviction: capacities are small (hundreds) and
   evictions already amortize a full parse and analysis, so an intrusive
   LRU list would be complexity without a measurable win. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k (s : slot) ->
      match !victim with
      | Some (_, age) when age <= s.last_use -> ()
      | _ -> victim := Some (k, s.last_use))
    t.index;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.index k;
      t.evictions <- t.evictions + 1;
      Telemetry.Metric.counter_incr t.m_evictions
  | None -> ()

let find_or_build t key ~build =
  Mutex.lock t.lock;
  t.tick <- t.tick + 1;
  let cached =
    match Hashtbl.find_opt t.index key with
    | Some slot ->
        slot.last_use <- t.tick;
        t.hits <- t.hits + 1;
        Some slot.value
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.lock;
  match cached with
  | Some value ->
      Telemetry.Metric.counter_incr t.m_hits;
      (value, true)
  | None ->
      Telemetry.Metric.counter_incr t.m_misses;
      let value = Telemetry.Span.with_ ~name:"service.build" build in
      Mutex.lock t.lock;
      t.tick <- t.tick + 1;
      (if not (Hashtbl.mem t.index key) then begin
         if Hashtbl.length t.index >= t.capacity then evict_lru t;
         Hashtbl.replace t.index key { value; last_use = t.tick }
       end);
      Telemetry.Metric.gauge_set t.m_entries (Hashtbl.length t.index);
      Mutex.unlock t.lock;
      (value, false)

type stats = { entries : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      entries = Hashtbl.length t.index;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.lock;
  s
