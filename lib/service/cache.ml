type entry = { kernel : Ptx.Ast.kernel; plan : Static.Plan.t }

type t = {
  lru : (string, entry) Lru.t;
  m_hits : Telemetry.Metric.counter;
  m_misses : Telemetry.Metric.counter;
}

let create ?(capacity = 128) () =
  let reg = Telemetry.Registry.default in
  let m_evictions =
    Telemetry.Registry.counter ~help:"Artifact cache LRU evictions" reg
      "barracuda_service_cache_evictions_total"
  in
  let m_entries =
    Telemetry.Registry.gauge ~help:"Artifact cache resident entries" reg
      "barracuda_service_cache_entries"
  in
  let on_insert ~entries ~evicted =
    if evicted then Telemetry.Metric.counter_incr m_evictions;
    Telemetry.Metric.gauge_set m_entries entries
  in
  {
    lru = Lru.create ~on_insert ~capacity ();
    m_hits =
      Telemetry.Registry.counter ~help:"Artifact cache hits" reg
        "barracuda_service_cache_hits_total";
    m_misses =
      Telemetry.Registry.counter ~help:"Artifact cache misses" reg
        "barracuda_service_cache_misses_total";
  }

let key source = Digest.to_hex (Digest.string source)

(* A miss is counted before its build, so a build that raises still
   counts, as the cache's own [misses] does. *)
let find_or_build t key ~build =
  let ((_, hit) as found) =
    Lru.find_or_build t.lru key ~build:(fun () ->
        Telemetry.Metric.counter_incr t.m_misses;
        Telemetry.Span.with_ ~name:"service.build" build)
  in
  if hit then Telemetry.Metric.counter_incr t.m_hits;
  found

type stats = Lru.stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t = Lru.stats t.lru
