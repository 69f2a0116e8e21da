(* Deterministic, seeded fault plans, in the mold of gpuFI-style
   injection campaigns: every decision — whether a given transport
   record is corrupted, whether a worker crashes at a given job pickup,
   which register bit flips at which step — is a pure function of
   (seed, stream tag, counter).  No shared RNG state exists, so the
   decision sequence is identical regardless of domain/thread
   interleaving, and a campaign with a fixed seed is bitwise
   reproducible. *)

type spec = {
  seed : int;
  bit_flip : float; (* per-record probability of a single-bit flip *)
  drop : float; (* per-record probability the consumer loses it *)
  duplicate : float; (* per-record probability it is fed twice *)
  delay : float; (* per-record probability of reorder-delay *)
  delay_hold : int; (* records a delayed record is held back *)
  worker_crash : float; (* per-(job, attempt) crash probability *)
  crash_once_jobs : int list; (* job ids that crash on attempt 0 only *)
  poison_jobs : int list; (* job ids that crash on every attempt *)
  reg_flips : int; (* register bit flips per launch *)
  smem_flips : int; (* shared-memory bit flips per launch *)
  fault_window : int; (* steps across which machine faults spread *)
  shard_crash_shards : int list; (* shard consumer domains that die *)
  shard_crash_after : int; (* records a doomed shard consumes first *)
}

let none =
  {
    seed = 0;
    bit_flip = 0.;
    drop = 0.;
    duplicate = 0.;
    delay = 0.;
    delay_hold = 4;
    worker_crash = 0.;
    crash_once_jobs = [];
    poison_jobs = [];
    reg_flips = 0;
    smem_flips = 0;
    fault_window = 4096;
    shard_crash_shards = [];
    shard_crash_after = 0;
  }

type injected = {
  flips : int;
  drops : int;
  dups : int;
  delays : int;
  crashes : int;
  shard_crashes : int;
  reg_flips_applied : int;
  smem_flips_applied : int;
}

type t = {
  spec : spec;
  n_flips : int Atomic.t;
  n_drops : int Atomic.t;
  n_dups : int Atomic.t;
  n_delays : int Atomic.t;
  n_crashes : int Atomic.t;
  n_shard_crashes : int Atomic.t;
  n_reg : int Atomic.t;
  n_smem : int Atomic.t;
}

let make spec =
  {
    spec;
    n_flips = Atomic.make 0;
    n_drops = Atomic.make 0;
    n_dups = Atomic.make 0;
    n_delays = Atomic.make 0;
    n_crashes = Atomic.make 0;
    n_shard_crashes = Atomic.make 0;
    n_reg = Atomic.make 0;
    n_smem = Atomic.make 0;
  }

let spec t = t.spec

let injected t =
  {
    flips = Atomic.get t.n_flips;
    drops = Atomic.get t.n_drops;
    dups = Atomic.get t.n_dups;
    delays = Atomic.get t.n_delays;
    crashes = Atomic.get t.n_crashes;
    shard_crashes = Atomic.get t.n_shard_crashes;
    reg_flips_applied = Atomic.get t.n_reg;
    smem_flips_applied = Atomic.get t.n_smem;
  }

(* Splitmix-flavoured avalanche over OCaml's 63-bit ints.  The
   multiplier constants are truncated to fit a native int literal; all
   we need is good bit diffusion and determinism across runs, not
   cryptographic quality. *)
let mix z =
  let z = z land max_int in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb land max_int in
  z lxor (z lsr 31)

let hash3 seed tag a b = mix (mix (mix (seed + 0x9e3779b9) + tag) + (a * 0x85ebca6b) + b)

(* Uniform in [0, 1) from the low 30 bits of a hash. *)
let u01 h = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

(* Stream tags, one per fault site. *)
let tag_transport = 0x7A
let tag_transport_bit = 0x7B
let tag_crash = 0xC4
let tag_machine = 0x3E

(* {2 Transport faults} *)

module Transport = struct
  type action =
    | Pass
    | Flip of int (* raw entropy; the consumer reduces it mod record bits *)
    | Drop
    | Duplicate
    | Delay of int (* records to hold the delayed copy *)

  type stream = { plan : t; mutable n : int }

  let stream plan = { plan; n = 0 }

  let next s =
    let p = s.plan in
    let sp = p.spec in
    let n = s.n in
    s.n <- n + 1;
    let u = u01 (hash3 sp.seed tag_transport 0 n) in
    let c1 = sp.bit_flip in
    let c2 = c1 +. sp.drop in
    let c3 = c2 +. sp.duplicate in
    let c4 = c3 +. sp.delay in
    if u < c1 then begin
      Atomic.incr p.n_flips;
      Flip (hash3 sp.seed tag_transport_bit 0 n)
    end
    else if u < c2 then begin
      Atomic.incr p.n_drops;
      Drop
    end
    else if u < c3 then begin
      Atomic.incr p.n_dups;
      Duplicate
    end
    else if u < c4 then begin
      Atomic.incr p.n_delays;
      Delay (if sp.delay_hold < 1 then 1 else sp.delay_hold)
    end
    else Pass
end

(* {2 Worker crashes} *)

exception Injected_worker_crash

let crash_at_pickup t ~job ~attempt =
  let sp = t.spec in
  let hit =
    List.mem job sp.poison_jobs
    || (attempt = 0 && List.mem job sp.crash_once_jobs)
    || sp.worker_crash > 0.
       && u01 (hash3 sp.seed tag_crash job attempt) < sp.worker_crash
  in
  if hit then Atomic.incr t.n_crashes;
  hit

(* {2 Shard crashes} *)

exception Injected_shard_crash

(* Shard crashes are listed explicitly rather than drawn: a campaign
   cell names which consumer domain dies, and [shard_crash_after] says
   how deep into the job.  The check runs once per consumed record, so
   it must stay a list lookup on the fast path only when the list is
   non-empty. *)
let shard_crash_after t ~shard =
  if List.mem shard t.spec.shard_crash_shards then
    Some (if t.spec.shard_crash_after < 0 then 0 else t.spec.shard_crash_after)
  else None

let note_shard_crash t = Atomic.incr t.n_shard_crashes

(* {2 Machine faults} *)

type machine_fault =
  | Reg_flip of { warp_r : int; reg_r : int; lane_r : int; bit : int }
  | Smem_flip of { block_r : int; addr_r : int; bit : int }

(* The schedule is materialized once per launch: [reg_flips] register
   flips and [smem_flips] shared-memory flips at seeded steps inside
   [fault_window], sorted by step.  Faults scheduled past the end of a
   short run simply never fire (and are not counted as applied). *)
let machine_faults t =
  let sp = t.spec in
  let window = if sp.fault_window < 1 then 1 else sp.fault_window in
  let one tag i kind =
    let h1 = hash3 sp.seed tag_machine ((tag * 2) + 1) i in
    let h2 = hash3 sp.seed tag_machine ((tag * 2) + 2) i in
    let step = h1 mod window in
    (step, kind h2)
  in
  let regs =
    List.init sp.reg_flips (fun i ->
        one 1 i (fun h ->
            Reg_flip
              {
                warp_r = h land 0xFFFF;
                reg_r = (h lsr 16) land 0xFFFF;
                lane_r = (h lsr 32) land 0xFF;
                bit = (h lsr 40) land 0x3F;
              }))
  in
  let smem =
    List.init sp.smem_flips (fun i ->
        one 2 i (fun h ->
            Smem_flip
              {
                block_r = h land 0xFFFF;
                addr_r = (h lsr 16) land 0xFFFFFF;
                bit = (h lsr 40) land 0x7;
              }))
  in
  let all = Array.of_list (regs @ smem) in
  Array.sort (fun (a, _) (b, _) -> compare a b) all;
  all

let note_reg_applied t = Atomic.incr t.n_reg
let note_smem_applied t = Atomic.incr t.n_smem
