type quota = { rate : float; burst : int; seats : int }

type config = {
  workers : int;
  queue_capacity : int;
  session_seats : int;
  fault : Fault.Plan.t option;
  tenant_quotas : (string * quota) list;
}

let default_config =
  {
    workers = 2;
    queue_capacity = 64;
    session_seats = 2;
    fault = None;
    tenant_quotas = [];
  }

let default_tenant = "default"
let retry_after_ms = 50

(* Crash-restarts a job gets before it is quarantined as poison. *)
let max_job_restarts = 2

type counts = Protocol.jobs = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  racy : int;
  race_free : int;
  quarantined : int;
  workers_restarted : int;
}

type job = {
  id : int;
  submit : Protocol.submit;
  reply : Protocol.response -> unit;
  enqueued_ns : int64;
  mutable attempts : int;  (* crash-restarts so far *)
  tn : tenant;  (* the tenant the job is queued and accounted under *)
}

(* Per-tenant scheduling state.  Every tenant owns its own FIFO; the
   workers drain the set of FIFOs with deficit round-robin, so one
   tenant's backlog can never starve another's.  Tenants with a
   configured quota are additionally token-bucket admitted (jobs/s)
   and seat-capped (concurrent jobs in flight). *)
and tenant = {
  tn_name : string;
  tn_quota : quota option;  (* [None]: no rate limit, no seat cap *)
  tn_jobs : job Queue.t;
  mutable tn_tokens : float;  (* token bucket, refilled lazily *)
  mutable tn_refill_ns : int64;
  mutable tn_credit : bool;  (* DRR: may take one job this round *)
  mutable tn_inflight : int;  (* jobs currently on a worker *)
  mutable tn_submitted : int;
  mutable tn_completed : int;  (* settled with a terminal reply *)
  mutable tn_rejected : int;
  tn_g_queued : Telemetry.Metric.gauge;
  tn_g_inflight : Telemetry.Metric.gauge;
  tn_m_submitted : Telemetry.Metric.counter;
  tn_m_completed : Telemetry.Metric.counter;
  tn_m_rejected : Telemetry.Metric.counter;
  tn_h_latency : Telemetry.Metric.histogram;  (* queue + run, ms *)
}

(* One long-lived streaming-session seat.  Each seat owns a dedicated
   domain; connection sys-threads rendezvous closures onto it through
   [session_call], so detector compute never runs on the accept
   domain, which every connection thread shares.  A seat serves one
   session at a time: [taken] is guarded by the scheduler's lock, the
   rendezvous state by the seat's own lock, so calls never contend
   with the job queue. *)
type seat = {
  mutable taken : bool;
  s_lock : Mutex.t;
  s_wake : Condition.t;  (* a call arrived, or shutdown *)
  s_done : Condition.t;  (* the pending call completed *)
  mutable s_pending : (unit -> unit) option;
  mutable s_finished : bool;
  mutable s_shutdown : bool;
  mutable s_dom : unit Domain.t option;
}

type t = {
  config : config;
  exec : job:int -> Protocol.submit -> Protocol.response;
  lock : Mutex.t;
  nonempty : Condition.t;
  tenants : (string, tenant) Hashtbl.t;
  mutable ring : tenant array;  (* DRR visit order; grows, never shrinks *)
  mutable rr : int;  (* ring cursor *)
  mutable pending_total : int;  (* jobs across every tenant queue *)
  mutable stopping : bool;
  mutable next_id : int;
  mutable busy : int;
  mutable c : counts;
  mutable workers : unit Domain.t array;
  seats : seat array;
  mutable sessions_opened_total : int;
  m_jobs_racy : Telemetry.Metric.counter;
  m_jobs_race_free : Telemetry.Metric.counter;
  m_jobs_failed : Telemetry.Metric.counter;
  m_jobs_rejected : Telemetry.Metric.counter;
  m_workers_restarted : Telemetry.Metric.counter;
  m_jobs_quarantined : Telemetry.Metric.counter;
  g_depth : Telemetry.Metric.gauge;
  g_busy : Telemetry.Metric.gauge;
  g_sessions : Telemetry.Metric.gauge;
  h_queue_wait : Telemetry.Metric.histogram;
  h_run : Telemetry.Metric.histogram;
}

let latency_bounds =
  [| 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0;
     1000.0; 2500.0; 5000.0 |]

let jobs_counter verdict =
  Telemetry.Registry.counter
    ~help:"Service jobs by final verdict"
    ~labels:[ ("verdict", verdict) ]
    Telemetry.Registry.default "barracuda_service_jobs_total"

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ---- tenants ----------------------------------------------------- *)

let tenant_counter ~event name =
  Telemetry.Registry.counter
    ~help:"Per-tenant job events"
    ~labels:[ ("tenant", name); ("event", event) ]
    Telemetry.Registry.default "barracuda_service_tenant_jobs_total"

let make_tenant ~quota name =
  let labels = [ ("tenant", name) ] in
  let reg = Telemetry.Registry.default in
  {
    tn_name = name;
    tn_quota = quota;
    tn_jobs = Queue.create ();
    tn_tokens =
      (match quota with
      | Some q when q.rate > 0.0 -> float_of_int (max 1 q.burst)
      | _ -> 0.0);
    tn_refill_ns = Telemetry.Clock.now_ns ();
    tn_credit = false;
    tn_inflight = 0;
    tn_submitted = 0;
    tn_completed = 0;
    tn_rejected = 0;
    tn_g_queued =
      Telemetry.Registry.gauge ~help:"Jobs waiting per tenant" ~labels reg
        "barracuda_service_tenant_queued";
    tn_g_inflight =
      Telemetry.Registry.gauge ~help:"Jobs executing per tenant" ~labels reg
        "barracuda_service_tenant_inflight";
    tn_m_submitted = tenant_counter ~event:"submitted" name;
    tn_m_completed = tenant_counter ~event:"completed" name;
    tn_m_rejected = tenant_counter ~event:"rejected" name;
    tn_h_latency =
      Telemetry.Registry.histogram
        ~help:"End-to-end job latency per tenant (queue + run, ms)"
        ~bounds:latency_bounds ~labels reg
        "barracuda_service_tenant_latency_ms";
  }

(* Must be called under [t.lock]. *)
let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let quota = List.assoc_opt name t.config.tenant_quotas in
      let tn = make_tenant ~quota name in
      Hashtbl.replace t.tenants name tn;
      t.ring <- Array.append t.ring [| tn |];
      tn

let tenant_name sub =
  match sub.Protocol.tenant with Some n -> n | None -> default_tenant

(* Token-bucket admission, under [t.lock].  [None] admits the job;
   [Some ms] is the time until a token accrues, for the retry hint. *)
let quota_admit tn =
  match tn.tn_quota with
  | Some q when q.rate > 0.0 ->
      let now = Telemetry.Clock.now_ns () in
      let dt = Int64.to_float (Int64.sub now tn.tn_refill_ns) /. 1e9 in
      tn.tn_refill_ns <- now;
      let cap = float_of_int (max 1 q.burst) in
      tn.tn_tokens <- Float.min cap (tn.tn_tokens +. (dt *. q.rate));
      if tn.tn_tokens >= 1.0 then begin
        tn.tn_tokens <- tn.tn_tokens -. 1.0;
        None
      end
      else
        let wait_s = (1.0 -. tn.tn_tokens) /. q.rate in
        Some (max 1 (int_of_float (Float.ceil (wait_s *. 1000.0))))
  | _ -> None

let seats_free tn =
  match tn.tn_quota with
  | Some q when q.seats > 0 -> tn.tn_inflight < q.seats
  | _ -> true

(* A tenant a worker may serve right now: backlogged and not
   seat-capped.  Seat-capped backlogs wait for a completion (which
   broadcasts [nonempty]) rather than occupying a worker. *)
let eligible tn = (not (Queue.is_empty tn.tn_jobs)) && seats_free tn

let exists_eligible t = Array.exists eligible t.ring

(* Deficit round-robin with unit job cost and unit quantum, so a
   tenant's deficit only ever holds 0 or 1: its credit bit.  Visit
   tenants from the cursor; an eligible tenant with credit is served
   and spends it.  A full lap without service gives every eligible
   tenant credit and rescans, so this terminates whenever the caller
   has checked [exists_eligible].  The steady state is a fair
   round-robin over backlogged tenants, and the bit keeps the share
   exact across seat-cap stalls; a queue only empties by a pop, which
   spends the credit, so an idle tenant holds none.  Call under
   [t.lock]. *)
let drr_pop t =
  let n = Array.length t.ring in
  let rec scan tried =
    if tried >= n then begin
      Array.iter (fun tn -> if eligible tn then tn.tn_credit <- true) t.ring;
      scan 0
    end
    else begin
      let tn = t.ring.(t.rr) in
      t.rr <- (t.rr + 1) mod n;
      if eligible tn && tn.tn_credit then begin
        tn.tn_credit <- false;
        let job = Queue.pop tn.tn_jobs in
        t.pending_total <- t.pending_total - 1;
        Telemetry.Metric.gauge_set tn.tn_g_queued (Queue.length tn.tn_jobs);
        job
      end
      else scan (tried + 1)
    end
  in
  scan 0

(* ---- workers ----------------------------------------------------- *)

(* Next job for a worker, under [t.lock]: DRR across the tenant queues
   whenever some tenant is eligible; park otherwise.  Queued jobs are
   honored across shutdown — their clients are still waiting — so a
   stopping scheduler only releases the worker once every queue is
   empty.  Every release of a worker or tenant seat broadcasts
   [nonempty], because it can unblock a seat-capped tenant, not just
   refill an empty queue. *)
let rec take_job t =
  if exists_eligible t then Some (drr_pop t)
  else if t.stopping && t.pending_total = 0 then None
  else begin
    Condition.wait t.nonempty t.lock;
    take_job t
  end

(* A claimed job's run, outside the lock, with its timings filled in.
   A planned crash fires first, after the job is claimed but before
   any work: the spot where a lost job would leave its client
   hanging. *)
let run t job =
  (match t.config.fault with
  | Some p when Fault.Plan.crash_at_pickup p ~job:job.id ~attempt:job.attempts
    ->
      raise Fault.Plan.Injected_worker_crash
  | _ -> ());
  let queue_ms = ms_of_ns (Telemetry.Clock.elapsed_ns ~since:job.enqueued_ns) in
  Telemetry.Metric.histogram_observe t.h_queue_wait queue_ms;
  let t0 = Telemetry.Clock.now_ns () in
  let response =
    try t.exec ~job:job.id job.submit
    with exn ->
      (* {!Exec.run} already catches everything; this guards a future
         exec that does not. *)
      Protocol.Failed
        { job = job.id; code = "exec_error"; message = Printexc.to_string exn }
  in
  let run_ms = ms_of_ns (Telemetry.Clock.elapsed_ns ~since:t0) in
  Telemetry.Metric.histogram_observe t.h_run run_ms;
  Telemetry.Metric.histogram_observe job.tn.tn_h_latency (queue_ms +. run_ms);
  match response with
  | Protocol.Result r -> Protocol.Result { r with queue_ms; run_ms }
  | other -> other

(* Give back the worker and the tenant seat a claimed job held, and
   wake every parked worker: either seat may unblock one.  Called under
   [t.lock], just before the caller unlocks it. *)
let release t tn =
  t.busy <- t.busy - 1;
  tn.tn_inflight <- tn.tn_inflight - 1;
  Telemetry.Metric.gauge_set t.g_busy t.busy;
  Telemetry.Metric.gauge_set tn.tn_g_inflight tn.tn_inflight;
  Condition.broadcast t.nonempty

(* Answer a claimed job for good (a result, a failure or a quarantine).
   Called under [t.lock], which it releases before replying: a client
   that has its answer must see the job counted in a subsequent status
   query. *)
let settle t job response =
  let tn = job.tn and c = t.c in
  tn.tn_completed <- tn.tn_completed + 1;
  Telemetry.Metric.counter_incr tn.tn_m_completed;
  (match response with
  | Protocol.Result { outcome = { Protocol.verdict = Protocol.Racy; _ }; _ } ->
      t.c <- { c with completed = c.completed + 1; racy = c.racy + 1 };
      Telemetry.Metric.counter_incr t.m_jobs_racy
  | Protocol.Result _ ->
      t.c <-
        { c with completed = c.completed + 1; race_free = c.race_free + 1 };
      Telemetry.Metric.counter_incr t.m_jobs_race_free
  | _ ->
      t.c <- { c with failed = c.failed + 1 };
      Telemetry.Metric.counter_incr t.m_jobs_failed);
  release t tn;
  Mutex.unlock t.lock;
  try job.reply response with _ -> ()

let quarantine_message attempts =
  Printf.sprintf
    "job crashed its worker %d time%s and was quarantined as poison" attempts
    (if attempts = 1 then "" else "s")

(* An exception escaped a job's run: an injected crash, or a bug
   outside [exec]'s catch-all.  The worker recovers in place: it counts
   the restart and puts the job back at its tenant's tail with
   [enqueued_ns] intact, so queue-wait telemetry spans the crash, or,
   past [max_job_restarts], answers it as poison. *)
let crashed t job =
  let tn = job.tn in
  Mutex.lock t.lock;
  t.c <- { t.c with workers_restarted = t.c.workers_restarted + 1 };
  Telemetry.Metric.counter_incr t.m_workers_restarted;
  job.attempts <- job.attempts + 1;
  if job.attempts > max_job_restarts then begin
    t.c <- { t.c with quarantined = t.c.quarantined + 1 };
    Telemetry.Metric.counter_incr t.m_jobs_quarantined;
    settle t job
      (Protocol.Failed
         {
           job = job.id;
           code = "quarantined";
           message = quarantine_message job.attempts;
         })
  end
  else begin
    Queue.push job tn.tn_jobs;
    t.pending_total <- t.pending_total + 1;
    Telemetry.Metric.gauge_set t.g_depth t.pending_total;
    Telemetry.Metric.gauge_set tn.tn_g_queued (Queue.length tn.tn_jobs);
    release t tn;
    Mutex.unlock t.lock
  end

(* A worker domain: claim a job, run it unlocked, settle it or recover
   from its crash, and take the next, until [take_job] lets it go. *)
let rec work t =
  Mutex.lock t.lock;
  match take_job t with
  | None -> Mutex.unlock t.lock
  | Some job ->
      let tn = job.tn in
      t.busy <- t.busy + 1;
      tn.tn_inflight <- tn.tn_inflight + 1;
      Telemetry.Metric.gauge_set t.g_depth t.pending_total;
      Telemetry.Metric.gauge_set t.g_busy t.busy;
      Telemetry.Metric.gauge_set tn.tn_g_inflight tn.tn_inflight;
      Mutex.unlock t.lock;
      (match run t job with
      | response ->
          Mutex.lock t.lock;
          settle t job response
      | exception _ -> crashed t job);
      work t

(* A seat domain: park on the condition variable, run rendezvoused
   calls to completion.  Pending work is always honored before a
   shutdown is observed, so [stop] never strands a blocked caller. *)
let seat_loop seat =
  Mutex.lock seat.s_lock;
  let rec go () =
    match seat.s_pending with
    | Some thunk ->
        seat.s_pending <- None;
        Mutex.unlock seat.s_lock;
        thunk ();
        Mutex.lock seat.s_lock;
        seat.s_finished <- true;
        Condition.broadcast seat.s_done;
        go ()
    | None ->
        if not seat.s_shutdown then begin
          Condition.wait seat.s_wake seat.s_lock;
          go ()
        end
  in
  go ();
  Mutex.unlock seat.s_lock

let create ?(config = default_config) ~exec () =
  if config.workers < 1 then
    invalid_arg "Scheduler.create: workers must be positive";
  if config.queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be positive";
  if config.session_seats < 0 then
    invalid_arg "Scheduler.create: session_seats must be non-negative";
  List.iter
    (fun (name, q) ->
      if name = "" then
        invalid_arg "Scheduler.create: tenant names must be non-empty";
      if q.rate < 0.0 || q.burst < 0 || q.seats < 0 then
        invalid_arg
          "Scheduler.create: tenant quota rate/burst/seats must be \
           non-negative")
    config.tenant_quotas;
  let reg = Telemetry.Registry.default in
  let t =
    {
      config;
      exec;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      tenants = Hashtbl.create 8;
      ring = [||];
      rr = 0;
      pending_total = 0;
      stopping = false;
      next_id = 0;
      busy = 0;
      c =
        {
          submitted = 0;
          completed = 0;
          failed = 0;
          rejected = 0;
          racy = 0;
          race_free = 0;
          quarantined = 0;
          workers_restarted = 0;
        };
      workers = [||];
      seats =
        Array.init config.session_seats (fun _ ->
            {
              taken = false;
              s_lock = Mutex.create ();
              s_wake = Condition.create ();
              s_done = Condition.create ();
              s_pending = None;
              s_finished = false;
              s_shutdown = false;
              s_dom = None;
            });
      sessions_opened_total = 0;
      m_jobs_racy = jobs_counter "racy";
      m_jobs_race_free = jobs_counter "race_free";
      m_jobs_failed = jobs_counter "failed";
      m_jobs_rejected = jobs_counter "rejected";
      m_workers_restarted =
        Telemetry.Registry.counter
          ~help:"Worker crashes recovered in place (job requeued or \
                 quarantined)"
          reg "barracuda_service_workers_restarted_total";
      m_jobs_quarantined =
        Telemetry.Registry.counter
          ~help:"Jobs quarantined after exhausting crash-restarts" reg
          "barracuda_service_jobs_quarantined_total";
      g_depth =
        Telemetry.Registry.gauge ~help:"Jobs waiting in the service queue" reg
          "barracuda_service_queue_depth";
      g_busy =
        Telemetry.Registry.gauge ~help:"Workers currently executing a job" reg
          "barracuda_service_busy_workers";
      g_sessions =
        Telemetry.Registry.gauge
          ~help:"Streaming sessions currently open" reg
          "barracuda_service_open_sessions";
      h_queue_wait =
        Telemetry.Registry.histogram ~help:"Job queue wait (ms)"
          ~bounds:latency_bounds reg "barracuda_service_queue_wait_ms";
      h_run =
        Telemetry.Registry.histogram ~help:"Job execution time (ms)"
          ~bounds:latency_bounds reg "barracuda_service_job_run_ms";
    }
  in
  (* Seat the default tenant and every configured one up front, in a
     stable order (default first, then configuration order), so the
     DRR ring and the per-tenant gauges exist before the first job. *)
  Mutex.lock t.lock;
  ignore (tenant_of t default_tenant);
  List.iter (fun (name, _) -> ignore (tenant_of t name)) config.tenant_quotas;
  Mutex.unlock t.lock;
  t.workers <-
    Array.init config.workers (fun _ -> Domain.spawn (fun () -> work t));
  Array.iter
    (fun seat -> seat.s_dom <- Some (Domain.spawn (fun () -> seat_loop seat)))
    t.seats;
  t

(* Seats held by a session, under [t.lock]. *)
let occupied t =
  Array.fold_left (fun n s -> if s.taken then n + 1 else n) 0 t.seats

let session_open t =
  Mutex.protect t.lock (fun () ->
      let found =
        if t.stopping then None
        else Array.find_opt (fun seat -> not seat.taken) t.seats
      in
      Option.iter
        (fun seat ->
          seat.taken <- true;
          t.sessions_opened_total <- t.sessions_opened_total + 1;
          Telemetry.Metric.gauge_set t.g_sessions (occupied t))
        found;
      found)

let session_call seat f =
  let cell = ref None in
  Mutex.lock seat.s_lock;
  if seat.s_shutdown then begin
    Mutex.unlock seat.s_lock;
    failwith "session seat is shutting down"
  end;
  seat.s_finished <- false;
  seat.s_pending <-
    Some
      (fun () ->
        cell := Some (match f () with v -> Ok v | exception e -> Error e));
  Condition.broadcast seat.s_wake;
  while not seat.s_finished do
    Condition.wait seat.s_done seat.s_lock
  done;
  Mutex.unlock seat.s_lock;
  match !cell with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let session_close t seat =
  Mutex.protect t.lock (fun () ->
      if seat.taken then begin
        seat.taken <- false;
        Telemetry.Metric.gauge_set t.g_sessions (occupied t)
      end)

let sessions t =
  Mutex.protect t.lock (fun () ->
      {
        Protocol.seats = Array.length t.seats;
        occupied = occupied t;
        opened = t.sessions_opened_total;
      })

let reject t tn ~reason ~retry_after_ms ~reply =
  t.c <- { t.c with rejected = t.c.rejected + 1 };
  tn.tn_rejected <- tn.tn_rejected + 1;
  Mutex.unlock t.lock;
  Telemetry.Metric.counter_incr t.m_jobs_rejected;
  Telemetry.Metric.counter_incr tn.tn_m_rejected;
  try reply (Protocol.Rejected { reason; retry_after_ms }) with _ -> ()

let submit t sub ~reply =
  Mutex.lock t.lock;
  let tn = tenant_of t (tenant_name sub) in
  if t.stopping then
    reject t tn ~reason:"shutting_down" ~retry_after_ms ~reply
  else if t.pending_total >= t.config.queue_capacity then
    reject t tn ~reason:"queue_full" ~retry_after_ms ~reply
  else
    match quota_admit tn with
    | Some retry_after_ms ->
        (* The tenant's own token bucket is dry: per-tenant
           backpressure with an exact refill hint, while other
           tenants' admission is untouched. *)
        reject t tn ~reason:"tenant_quota" ~retry_after_ms ~reply
    | None ->
        t.next_id <- t.next_id + 1;
        t.c <- { t.c with submitted = t.c.submitted + 1 };
        tn.tn_submitted <- tn.tn_submitted + 1;
        Queue.push
          {
            id = t.next_id;
            submit = sub;
            reply;
            enqueued_ns = Telemetry.Clock.now_ns ();
            attempts = 0;
            tn;
          }
          tn.tn_jobs;
        t.pending_total <- t.pending_total + 1;
        Telemetry.Metric.gauge_set t.g_depth t.pending_total;
        Telemetry.Metric.gauge_set tn.tn_g_queued (Queue.length tn.tn_jobs);
        Telemetry.Metric.counter_incr tn.tn_m_submitted;
        Condition.signal t.nonempty;
        Mutex.unlock t.lock

let depth t =
  Mutex.lock t.lock;
  let d = t.pending_total in
  Mutex.unlock t.lock;
  d

let busy t =
  Mutex.lock t.lock;
  let b = t.busy in
  Mutex.unlock t.lock;
  b

let counts t =
  Mutex.lock t.lock;
  let c = t.c in
  Mutex.unlock t.lock;
  c

(* Upper-bound percentile estimate from a histogram's buckets: the
   bound of the first bucket whose cumulative count reaches the target
   rank.  Observations in the overflow bucket report the last bound. *)
let histogram_percentile h p =
  let counts = Telemetry.Metric.histogram_counts h in
  let bounds = Telemetry.Metric.histogram_bounds h in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let target = float_of_int total *. p in
    let last = bounds.(Array.length bounds - 1) in
    let rec go i acc =
      if i >= Array.length counts then last
      else
        let acc = acc + counts.(i) in
        if float_of_int acc >= target then
          if i < Array.length bounds then bounds.(i) else last
        else go (i + 1) acc
    in
    go 0 0
  end

let tenant_status t =
  Mutex.lock t.lock;
  let tenants =
    Hashtbl.fold
      (fun _ tn acc ->
        {
          Protocol.t_name = tn.tn_name;
          t_queued = Queue.length tn.tn_jobs;
          t_inflight = tn.tn_inflight;
          t_submitted = tn.tn_submitted;
          t_completed = tn.tn_completed;
          t_rejected = tn.tn_rejected;
          t_p50_ms = histogram_percentile tn.tn_h_latency 0.50;
          t_p99_ms = histogram_percentile tn.tn_h_latency 0.99;
        }
        :: acc)
      t.tenants []
  in
  Mutex.unlock t.lock;
  List.sort
    (fun a b -> String.compare a.Protocol.t_name b.Protocol.t_name)
    tenants

let stop t =
  Mutex.lock t.lock;
  let first = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if first then begin
    (* A worker leaves only once every queue is empty, and a crashed
       job goes back on its queue before its worker takes the next, so
       after these joins every queued job has been settled. *)
    Array.iter Domain.join t.workers;
    (* Session seats: flag, wake, join.  An in-flight [session_call]
       completes first (the seat loop drains pending work before it
       observes shutdown); later calls raise. *)
    Array.iter
      (fun seat ->
        Mutex.lock seat.s_lock;
        seat.s_shutdown <- true;
        Condition.broadcast seat.s_wake;
        Mutex.unlock seat.s_lock)
      t.seats;
    Array.iter (fun seat -> Option.iter Domain.join seat.s_dom) t.seats;
    (* The queues are drained, no job can arrive and every seat is
       down; zero ALL scheduler-owned gauges — global and per-tenant —
       so a scrape after shutdown does not report ghost depth,
       busyness, sessions or tenant activity. *)
    Telemetry.Metric.gauge_set t.g_depth 0;
    Telemetry.Metric.gauge_set t.g_busy 0;
    Telemetry.Metric.gauge_set t.g_sessions 0;
    Mutex.lock t.lock;
    Array.iter
      (fun tn ->
        Telemetry.Metric.gauge_set tn.tn_g_queued 0;
        Telemetry.Metric.gauge_set tn.tn_g_inflight 0)
      t.ring;
    Mutex.unlock t.lock
  end
