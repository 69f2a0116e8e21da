(** Content-hash artifact cache.

    Memoizes the front half of the checking pipeline — the parsed
    kernel and its check plan — keyed by a digest of the PTX
    source alone, so repeat submissions of the same kernel pay only
    machine creation and execution, whichever job kind (check, repair,
    stream) built the entry.  The entry's kernel gets its simulator
    program through {!Simt.Machine.launch}'s process-wide memo, so a
    job launches it without validating or resolving it again (the
    same kernel value costs that memo a hash).  Both artifacts are
    immutable once built
    (the pipeline never mutates a kernel or a plan), which is what
    makes sharing them across worker domains sound.

    A bounded {!Lru} with a mutex around the index; a miss builds {e
    outside} the lock so concurrent workers are not serialized on
    parsing, at the cost of an occasional duplicated build when two
    workers miss the same key simultaneously (both results are
    identical; the first insert wins).

    Hits, misses and evictions are counted both locally (for the
    [status] reply, live even with telemetry off) and into
    [barracuda_service_cache_*] telemetry counters. *)

type entry = {
  kernel : Ptx.Ast.kernel;  (** what every job executes *)
  plan : Static.Plan.t;
      (** the kernel's check plan ({!Static.Plan.of_kernel}: the
          process-wide memo analyzes a kernel once, so a repair job's
          own lookups of this kernel find the same plan, and the entry
          keeps its plan after the memo evicts it).  Every check and
          stream job's detectors run under it, and its static analysis
          is what a worker consults to answer a provably racy check
          without executing it *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128 entries.
    @raise Invalid_argument if [capacity < 1]. *)

val key : string -> string
(** Digest of the source text: an entry depends on nothing else. *)

val find_or_build : t -> string -> build:(unit -> entry) -> entry * bool
(** The entry for a key, building (and inserting) it on a miss; the
    boolean is [true] on a hit.  Exceptions from [build] propagate and
    leave the cache unchanged (failed builds are not negatively
    cached: a malformed submission fails its own job each time). *)

type stats = Lru.stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
(** The [cache] object of a daemon's status reply. *)
