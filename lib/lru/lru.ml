type 'v slot = { value : 'v; mutable last_use : int }

type ('k, 'v) t = {
  capacity : int;
  index : ('k, 'v slot) Hashtbl.t;
  lock : Mutex.t;
  on_insert : entries:int -> evicted:bool -> unit;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(on_insert = fun ~entries:_ ~evicted:_ -> ()) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    index = Hashtbl.create (2 * capacity);
    lock = Mutex.create ();
    on_insert;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* O(capacity) scan on eviction: capacities are small (hundreds) and an
   eviction already amortizes a build, so an intrusive LRU list would
   be complexity without a measurable win. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k s ->
      match !victim with
      | Some (_, age) when age <= s.last_use -> ()
      | _ -> victim := Some (k, s.last_use))
    t.index;
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.index k;
      t.evictions <- t.evictions + 1)
    !victim

let find_or_build t key ~build =
  let cached =
    Mutex.protect t.lock (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.index key with
        | Some slot ->
            slot.last_use <- t.tick;
            t.hits <- t.hits + 1;
            Some slot.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some value -> (value, true)
  | None ->
      let value = build () in
      Mutex.protect t.lock (fun () ->
          t.tick <- t.tick + 1;
          match Hashtbl.find_opt t.index key with
          | Some slot -> (slot.value, false)
          | None ->
              let evicted = Hashtbl.length t.index >= t.capacity in
              if evicted then evict_lru t;
              Hashtbl.replace t.index key { value; last_use = t.tick };
              t.on_insert ~entries:(Hashtbl.length t.index) ~evicted;
              (value, false))

type stats = { entries : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        entries = Hashtbl.length t.index;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
