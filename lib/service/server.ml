type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  max_steps : int;
  job_deadline_ms : int;
  cache_capacity : int;
  job_shards : int;
  session_seats : int;
  tenant_quotas : (string * Scheduler.quota) list;
}

let default_config =
  {
    socket_path = Filename.concat (Filename.get_temp_dir_name ()) "barracuda.sock";
    workers = 2;
    queue_capacity = 64;
    max_steps = Exec.default_config.Exec.max_steps;
    job_deadline_ms = 30_000;
    cache_capacity = 128;
    job_shards = 1;
    session_seats = Scheduler.default_config.Scheduler.session_seats;
    tenant_quotas = [];
  }

(* A client that sends nothing for this long, on a new or a kept
   connection, is dropped. *)
let read_timeout_s = 30.0

(* A write to a client waits at most this long for room ([SO_SNDTIMEO]
   on every connection).  A reply frame fits the socket buffer unless
   the client has left earlier replies unread, so a worker writing a
   job's reply never waits longer on a client that stopped reading. *)
let write_bound_s = 1.0

(* [workers] is the total domain budget.  With intra-job sharding each
   job seat drives [job_shards] detector domains, so the scheduler gets
   [workers / job_shards] seats (at least one): the budget is split
   between inter-job and intra-job parallelism rather than multiplied. *)
let worker_seats config =
  if config.job_shards <= 1 then config.workers
  else max 1 (config.workers / config.job_shards)

(* A streaming session on one connection, with the transport counts of
   its latest verdict. *)
type session = {
  seat : Scheduler.seat;
  st : Gpu_runtime.Session.stream;
  mutable reported : Barracuda.Report.integrity;
}

let no_anomalies =
  { Barracuda.Report.corrupt = 0; gaps = 0; stale = 0; desync = 0 }

type t = {
  config : config;
  exec_config : Exec.config;
  cache : Cache.t;
  sched : Scheduler.t;
  listener : Unix.file_descr;
  path_id : int * int; (* the socket file's (device, inode) *)
  wake_r : Unix.file_descr; (* the accept loop's wake-up pipe *)
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  started_ns : int64;
  next_sid : int Atomic.t;
  accept_domain : unit Domain.t option Atomic.t;
  mutable campaign_hook : unit -> Protocol.campaign_status option;
      (* composed in by the CLI when a background campaign daemon runs
         inside this process; the server itself never depends on the
         campaign layer (which depends on this one) *)
  integrity_lock : Mutex.t;
  mutable integrity : Barracuda.Report.integrity;
      (* the sum of every session's [reported] counts *)
  live_lock : Mutex.t;
  live : (Unix.file_descr, unit) Hashtbl.t;
      (* every open client connection, so a stop can end idle ones *)
  m_connections : Telemetry.Metric.counter;
  m_protocol_errors : Telemetry.Metric.counter;
}

let socket_path t = t.config.socket_path
let live_connections t =
  Mutex.protect t.live_lock (fun () -> Hashtbl.length t.live)
let set_campaign_hook t hook = t.campaign_hook <- hook
let load t = Scheduler.depth t.sched + Scheduler.busy t.sched

let status t =
  {
    Protocol.uptime_ms =
      Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t.started_ns) /. 1e6;
    workers = worker_seats t.config;
    busy = Scheduler.busy t.sched;
    queue_depth = Scheduler.depth t.sched;
    queue_capacity = t.config.queue_capacity;
    jobs = Scheduler.counts t.sched;
    cache = Cache.stats t.cache;
    sessions = Scheduler.sessions t.sched;
    transport = Mutex.protect t.integrity_lock (fun () -> t.integrity);
    tenants = Scheduler.tenant_status t.sched;
    campaign = t.campaign_hook ();
  }

(* Whether something accepts connections on [path]: a bare connect,
   closed at once.  A live daemon's connection thread reads end of file
   and ends, so the probe parks nothing there. *)
let accepts path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let request_stop t =
  if Atomic.compare_and_set t.stopping false true then
    (* A blocked [accept] does not notice its descriptor being closed
       (Linux keeps it parked), so the accept loop waits on the listener
       and a pipe together, and a byte down the pipe wakes it, whatever
       the socket path holds now; it re-checks the stopping flag on
       every wake-up, and on the way out ends the idle connections. *)
    try ignore (Unix.single_write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

(* A stopping daemon ends every idle kept connection at once instead
   of waiting out its read timeout: shutting down the read side makes
   the connection thread's next read see end of file, after any reply
   it still owes is written.  The accept loop sweeps the live
   connections when it sees the stopping flag (so {!request_stop}
   stays safe from a signal handler); a connection registered after
   the sweep sees the flag and ends itself. *)
let end_reads fd =
  try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

let register t fd =
  Mutex.protect t.live_lock (fun () ->
      Hashtbl.replace t.live fd ();
      if Atomic.get t.stopping then end_reads fd)

let unregister t fd =
  Mutex.protect t.live_lock (fun () -> Hashtbl.remove t.live fd)

let end_live_reads t =
  Mutex.protect t.live_lock (fun () ->
      Hashtbl.iter (fun fd () -> end_reads fd) t.live)

(* The write side of one client connection.  Its thread writes every
   frame but a job's reply, which whoever settles the job writes
   ([reply]: the worker, or the thread itself when the scheduler
   rejects the job at once).  The thread marks a reply [owe]d when it
   submits, and the reply's writer clears the mark once the frame is
   out; the thread waits for that ([settled]) before it writes another
   frame, submits another job or closes the descriptor, so replies
   leave in request order and no reply is ever written to a closed
   descriptor.  [broken] records a failed write. *)
module Conn = struct
  type t = {
    fd : Unix.file_descr;
    lock : Mutex.t;
    written : Condition.t;
    mutable inflight : bool;
    mutable broken : bool;
  }

  let create fd =
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_bound_s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    {
      fd;
      lock = Mutex.create ();
      written = Condition.create ();
      inflight = false;
      broken = false;
    }

  (* One frame, encoded by [frame] and written within [write_bound_s].
     Any exception, from the encoding or the write, is a failed write:
     it shuts the connection down both ways, so the thread's next read
     sees end of file; [false] then. *)
  let send c frame =
    match Protocol.write_frame c.fd (frame ()) with
    | () -> true
    | exception _ ->
        (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        false

  let owe c = Mutex.protect c.lock (fun () -> c.inflight <- true)
  let owed c = Mutex.protect c.lock (fun () -> c.inflight)

  (* [send] never raises, so the mark is always cleared. *)
  let reply c frame =
    let ok = send c frame in
    Mutex.protect c.lock (fun () ->
        c.inflight <- false;
        if not ok then c.broken <- true;
        Condition.signal c.written)

  let settled c =
    Mutex.protect c.lock (fun () ->
        while c.inflight do
          Condition.wait c.written c.lock
        done;
        not c.broken)
end

(* A session's verdict (flush or close).  The counts its integrity
   gained since its previous verdict join the daemon's total, so status
   counts each anomaly of the daemon's own sessions once. *)
let stream_verdict t s ~sid (p : Gpu_runtime.Session.progress) =
  let cur = p.Gpu_runtime.Session.p_integrity and prev = s.reported in
  s.reported <- cur;
  Mutex.protect t.integrity_lock (fun () ->
      let tot = t.integrity in
      t.integrity <-
        Barracuda.Report.
          {
            corrupt = tot.corrupt + cur.corrupt - prev.corrupt;
            gaps = tot.gaps + cur.gaps - prev.gaps;
            stale = tot.stale + cur.stale - prev.stale;
            desync = tot.desync + cur.desync - prev.desync;
          });
  Protocol.Stream_verdict
    {
      sid;
      final = p.Gpu_runtime.Session.p_final;
      records = p.Gpu_runtime.Session.p_records;
      races = p.Gpu_runtime.Session.p_race_count;
      verdict =
        (if p.Gpu_runtime.Session.p_has_race then Protocol.Racy
         else Protocol.Race_free);
      degraded = p.Gpu_runtime.Session.p_degraded;
      integrity = cur;
    }

(* One client connection, on its own thread, carrying any number of
   requests, each answered in order.  The thread owns the descriptor
   and its frame reader, and sleeps in [read_frame] between requests:
   a submitted job is queued with a [reply] that writes its answer, and
   the thread goes back to reading.  Before it acts on the next frame,
   or closes, it waits for that reply to be out.  Every exit path
   closes the descriptor exactly once.  Streaming sessions opened on
   the connection live in a connection-local table and are aborted
   (seat released) on any exit, so a client hang-up cannot leak a
   seat. *)
let handle_connection t fd =
  Telemetry.Metric.counter_incr t.m_connections;
  register t fd;
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let c = Conn.create fd in
  let reader = Protocol.reader fd in
  let sessions : (int, session) Hashtbl.t = Hashtbl.create 4 in
  let drop_session sid s =
    (* Abort on the seat when it still answers; directly otherwise
       (abort never raises, and at teardown the connection thread may
       run it). *)
    (try Scheduler.session_call s.seat (fun () ->
         Gpu_runtime.Session.abort_stream s.st)
     with _ -> ( try Gpu_runtime.Session.abort_stream s.st with _ -> ()));
    Hashtbl.remove sessions sid;
    Scheduler.session_close t.sched s.seat
  in
  let abort_sessions () =
    Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) sessions []
    |> List.iter (fun (sid, s) -> drop_session sid s)
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      ignore (Conn.settled c);
      abort_sessions ();
      unregister t fd;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  (* The thread's own frames; no reply is in flight when it sends. *)
  let send resp =
    if not (Conn.send c (fun () -> Protocol.encode_response resp)) then
      close ()
  in
  (* A command on an open session: run [f] on the session's seat and
     pass its result to [k].  An unknown id ends the exchange; so does
     any exception (a framing error, a dead shard), which leaves the
     session unusable, so it is torn down first. *)
  let on_session sid f k =
    match Hashtbl.find_opt sessions sid with
    | None ->
        send (Protocol.Error "unknown session id");
        close ()
    | Some s -> (
        match Scheduler.session_call s.seat (fun () -> f s.st) with
        | v -> k s v
        | exception exn ->
            drop_session sid s;
            send (Exec.error_response ~job:sid exn);
            close ())
  in
  let rec loop () =
    (* [send] closes the descriptor on a failed write; never read after
       that — the fd number may already belong to a newer connection. *)
    let continue () = if !closed then () else loop () in
    let owed = Conn.owed c in
    match Protocol.read_frame reader with
    | Protocol.Eof -> close ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when owed && Conn.settled c ->
        (* The read timed out while the last job ran: the client was
           waiting for its reply, not idle, so the idle time counts
           from the reply. *)
        loop ()
    | exception Unix.Unix_error _ -> close ()
    | _ when not (Conn.settled c) ->
        (* The last reply's write failed: the client stopped reading,
           and the connection is shut down. *)
        close ()
    | Protocol.Oversized ->
        Telemetry.Metric.counter_incr t.m_protocol_errors;
        send
          (Protocol.Error
             (Printf.sprintf "frame exceeds %d bytes" Protocol.max_frame_bytes));
        close ()
    | Protocol.Frame line -> (
        match Protocol.decode_request line with
        | Error msg ->
            Telemetry.Metric.counter_incr t.m_protocol_errors;
            send (Protocol.Error msg);
            close ()
        | Ok Protocol.Ping ->
            send Protocol.Pong;
            continue ()
        | Ok Protocol.Status ->
            send (Protocol.Status_reply (status t));
            continue ()
        | Ok Protocol.Metrics ->
            send
              (Protocol.Metrics_reply
                 (Telemetry.Export.to_prometheus Telemetry.Registry.default));
            continue ()
        | Ok Protocol.Shutdown ->
            send Protocol.Stopping;
            close ();
            request_stop t
        | Ok (Protocol.Stream_open sub) -> (
            if sub.Protocol.kind <> Protocol.Check then begin
              send (Protocol.Error "stream jobs must be of kind \"check\"");
              close ()
            end
            else
              match Scheduler.session_open t.sched with
              | None ->
                  (* Backpressure, not an error: every seat is occupied
                     (or the daemon is stopping); the connection stays
                     usable for a retry. *)
                  send
                    (Protocol.Rejected
                       {
                         reason = "sessions_exhausted";
                         retry_after_ms = Scheduler.retry_after_ms;
                       });
                  continue ()
              | Some seat -> (
                  match
                    Scheduler.session_call seat (fun () ->
                        Exec.stream_open ~config:t.exec_config ~cache:t.cache
                          sub)
                  with
                  | st ->
                      let sid = Atomic.fetch_and_add t.next_sid 1 in
                      Hashtbl.replace sessions sid
                        { seat; st; reported = no_anomalies };
                      send (Protocol.Stream_opened { sid });
                      continue ()
                  | exception exn ->
                      Scheduler.session_close t.sched seat;
                      send (Exec.error_response ~job:0 exn);
                      continue ()))
        | Ok (Protocol.Stream_append { sid; chunk }) ->
            on_session sid
              (fun st ->
                Gpu_runtime.Session.feed_chunk st chunk;
                Gpu_runtime.Session.stream_records st)
              (fun _ records ->
                send (Protocol.Stream_ack { sid; records });
                continue ())
        | Ok (Protocol.Stream_flush { sid }) ->
            on_session sid Gpu_runtime.Session.checkpoint (fun s p ->
                send (stream_verdict t s ~sid p);
                continue ())
        | Ok (Protocol.Stream_close { sid }) ->
            on_session sid Gpu_runtime.Session.close_stream (fun s p ->
                Hashtbl.remove sessions sid;
                Scheduler.session_close t.sched s.seat;
                send (stream_verdict t s ~sid p);
                continue ())
        | Ok (Protocol.Submit sub) ->
            Conn.owe c;
            Scheduler.submit t.sched sub ~reply:(fun resp ->
                Conn.reply c (fun () -> Protocol.encode_response resp));
            loop ())
  in
  try loop () with _ -> close ()

(* The listener is non-blocking, so a wake-up by the pipe, or a
   connection that vanishes between [select] and [accept], costs one
   more turn, not an accept that blocks past a stop.  A connection
   accepted as the stop lands sees the flag when it registers. *)
let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then
      match
        ignore (Unix.select [ t.listener; t.wake_r ] [] [] (-1.0));
        Unix.accept ~cloexec:true t.listener
      with
      | fd, _ ->
          Unix.clear_nonblock fd;
          ignore (Thread.create (fun () -> handle_connection t fd) ());
          go ()
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
              | Unix.EINTR ),
              _,
              _ ) ->
          go ()
      | exception Unix.Unix_error _ ->
          (* EBADF/EINVAL: the listener broke under us; end the loop
             rather than spin. *)
          ()
  in
  go ();
  (* The domain, which {!wait} joins, ends only when its connection
     threads do. *)
  if Atomic.get t.stopping then end_live_reads t

let start ?(config = default_config) () =
  (* Replies go to client descriptors that may already be closed
     (killed/timed-out submit clients); without this the resulting
     SIGPIPE would kill the daemon before the EPIPE handlers run.
     [Protocol.write_frame] latches this too, but do it eagerly so the
     daemon is covered from the first accept. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let cache = Cache.create ~capacity:config.cache_capacity () in
  let exec_config =
    {
      Exec.max_steps = config.max_steps;
      deadline_ms = config.job_deadline_ms;
      job_shards = config.job_shards;
    }
  in
  let sched =
    Scheduler.create
      ~config:
        {
          Scheduler.default_config with
          Scheduler.workers = worker_seats config;
          queue_capacity = config.queue_capacity;
          session_seats = config.session_seats;
          tenant_quotas = config.tenant_quotas;
        }
      ~exec:(fun ~job sub -> Exec.run ~config:exec_config ~cache ~job sub)
      ()
  in
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_UNIX config.socket_path in
  (match Unix.bind listener addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      (* A previous daemon's socket file.  Only take the address over
         if nothing accepts on it. *)
      if accepts config.socket_path then begin
        (try Unix.close listener with Unix.Unix_error _ -> ());
        Scheduler.stop sched;
        raise
          (Unix.Unix_error (Unix.EADDRINUSE, "bind", config.socket_path))
      end
      else begin
        (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
        Unix.bind listener addr
      end
  | exception e ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      Scheduler.stop sched;
      raise e);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let path_id =
    match Unix.stat config.socket_path with
    | st -> (st.Unix.st_dev, st.Unix.st_ino)
    | exception Unix.Unix_error _ -> (-1, -1)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      exec_config;
      cache;
      sched;
      listener;
      path_id;
      wake_r;
      wake_w;
      stopping = Atomic.make false;
      started_ns = Telemetry.Clock.now_ns ();
      next_sid = Atomic.make 1;
      accept_domain = Atomic.make None;
      campaign_hook = (fun () -> None);
      integrity_lock = Mutex.create ();
      integrity = no_anomalies;
      live_lock = Mutex.create ();
      live = Hashtbl.create 16;
      m_connections =
        Telemetry.Registry.counter ~help:"Client connections accepted"
          Telemetry.Registry.default "barracuda_service_connections_total";
      m_protocol_errors =
        Telemetry.Registry.counter ~help:"Unparsable requests received"
          Telemetry.Registry.default "barracuda_service_protocol_errors_total";
    }
  in
  Atomic.set t.accept_domain (Some (Domain.spawn (fun () -> accept_loop t)));
  t

(* Only the first caller tears down: by a later call the listener's
   descriptor number and the socket path may belong to a newer
   daemon.  The socket file goes before the listener closes: while the
   listener is open a bare connect still reaches it, so no other
   daemon takes the path over (see {!start}) and loses its own file to
   this unlink.  A file that is not this daemon's own (removed under
   it, and the path since bound by another daemon) stays. *)
let wait t =
  match Atomic.exchange t.accept_domain None with
  | None -> ()
  | Some d ->
      Domain.join d;
      (match Unix.stat t.config.socket_path with
      | st when (st.Unix.st_dev, st.Unix.st_ino) = t.path_id -> (
          try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ())
      | _ | (exception Unix.Unix_error _) -> ());
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ t.listener; t.wake_r; t.wake_w ];
      Scheduler.stop t.sched

let stop t =
  request_stop t;
  wait t
