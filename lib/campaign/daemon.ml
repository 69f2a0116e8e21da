(* Continuous background fault campaign.

   A single sys-thread walks the journal's linear trial space in
   batches, checkpointing after every batch.  It is deliberately the
   lowest-priority work in the process: before each batch it probes
   the service load (the caller's [load], e.g. the server's queued +
   executing jobs) and yields while any paying work exists; after
   each batch it sleeps the duty-cycle complement of the time the
   batch took. *)

type config = {
  seed : int;
  cases : int;
  trials : int;
  batch : int;  (* trials per checkpoint *)
  duty : float;  (* fraction of wall-clock spent running trials *)
}

let default_config =
  { seed = 42; cases = 8; trials = 25; batch = 8; duty = 0.25 }

type t = {
  config : config;
  load : unit -> int;  (* paying work right now; > 0 pauses the sweep *)
  dir : string;
  journal : Journal.t;
  lock : Mutex.t;
  mutable paused : bool;  (* last probe found paying work *)
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let status t =
  Mutex.protect t.lock (fun () ->
      let j = t.journal in
      {
        Service.Protocol.ca_trials = j.Journal.j_cursor;
        ca_total = Journal.total j;
        ca_batches = j.Journal.j_batches;
        ca_silent_wrong = Journal.silent_wrong j;
        ca_paused = t.paused;
      })

(* Sleep in short slices so [stop] never waits long. *)
let interruptible_sleep t s =
  let slice = 0.05 in
  let rec go left =
    if left > 0.0 && not t.stopping then begin
      Thread.delay (Float.min slice left);
      go (left -. slice)
    end
  in
  go s

let loop t =
  let baselines = Hashtbl.create 8 in
  while not t.stopping do
    if Journal.complete t.journal then begin
      t.paused <- false;
      interruptible_sleep t 0.2
    end
    else if t.load () > 0 then begin
      (* Paying work in the house: yield immediately and re-probe
         soon.  The campaign never occupies the process while a real
         job is queued or running. *)
      t.paused <- true;
      interruptible_sleep t 0.02
    end
    else begin
      t.paused <- false;
      let t0 = Telemetry.Clock.now_ns () in
      Mutex.protect t.lock (fun () ->
          ignore
            (Journal.advance ~baselines ~dir:t.dir t.journal
               ~n:t.config.batch));
      let elapsed_s =
        Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0) /. 1e9
      in
      (* duty cycle: running d of the time means idling
         elapsed * (1 - d) / d after each batch. *)
      let duty = Float.max 0.01 (Float.min 1.0 t.config.duty) in
      if duty < 1.0 then
        interruptible_sleep t (elapsed_s *. (1.0 -. duty) /. duty)
    end
  done

let start ?(config = default_config) ~load ~dir () =
  if config.batch < 1 then Error "campaign daemon: batch must be at least 1"
  else
    let { seed; cases; trials; _ } = config in
    match Journal.open_dir ~fresh:{ Journal.seed; cases; trials } dir with
    | Error _ as e -> e
    | Ok j ->
        let t =
          {
            config;
            load;
            dir;
            journal = j;
            lock = Mutex.create ();
            paused = false;
            stopping = false;
            thread = None;
          }
        in
        t.thread <- Some (Thread.create loop t);
        Ok t

let stop t =
  t.stopping <- true;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None;
      (* Final checkpoint so nothing since the last batch save is
         lost.  (Batch saves already make this a no-op in the common
         case.) *)
      Journal.save ~dir:t.dir t.journal
  | None -> ()
