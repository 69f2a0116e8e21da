(* A connection to the daemon: its descriptor and the frame reader
   over it. *)
type conn = { fd : Unix.file_descr; reader : Protocol.reader }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request/response exchange on [c]; the caller settles [c].  An
   error is flagged [true] when the connection died before a reply
   (end of file, [EPIPE], [ECONNRESET]): on a kept connection that is a
   daemon that dropped it, not a failed request. *)
let exchange ~socket c req =
  let lost = Error (true, "connection closed before a reply") in
  match
    Protocol.write_frame c.fd (Protocol.encode_request req);
    (* The reply may take as long as the job does; no read
       timeout here, the daemon's queue bound is the limit. *)
    Protocol.read_frame c.reader
  with
  | Protocol.Eof -> lost
  | Protocol.Oversized ->
      Error
        ( false,
          Printf.sprintf "reply exceeds the %d-byte frame limit"
            Protocol.max_frame_bytes )
  | Protocol.Frame line ->
      Result.map_error (fun e -> (false, e)) (Protocol.decode_response line)
  | exception Unix.Unix_error (e, fn, _) ->
      Error
        ( e = Unix.EPIPE || e = Unix.ECONNRESET,
          Printf.sprintf "%s: %s (%s)" socket (Unix.error_message e) fn )

let connect ~socket =
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> Ok { fd; reader = Protocol.reader fd }
      | exception Unix.Unix_error (e, fn, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "%s: %s (%s)" socket (Unix.error_message e) fn))

(* Idle connections per socket path, shared by every thread and domain
   of the process. *)
let idle : (string, conn list) Hashtbl.t = Hashtbl.create 4
let idle_lock = Mutex.create ()

let take_idle socket =
  Mutex.protect idle_lock (fun () ->
      match Hashtbl.find_opt idle socket with
      | Some (c :: rest) ->
          Hashtbl.replace idle socket rest;
          Some c
      | _ -> None)

let put_idle socket c =
  Mutex.protect idle_lock (fun () ->
      Hashtbl.replace idle socket
        (c :: Option.value ~default:[] (Hashtbl.find_opt idle socket)))

(* The one request path: an idle connection or a new one, one
   exchange, and the connection back to the idle list after any reply
   but the two the daemon closes it after.  A kept connection that died
   before its reply is closed and the request retried once, on a new
   connection; a new connection's failure is the caller's. *)
let request ~socket req =
  let on c =
    let r = exchange ~socket c req in
    (match r with
    | Ok (Protocol.Error _ | Protocol.Stopping) | Error _ -> close_conn c
    | Ok _ -> put_idle socket c);
    r
  in
  let fresh () =
    match connect ~socket with
    | Error _ as e -> e
    | Ok c -> Result.map_error snd (on c)
  in
  match take_idle socket with
  | None -> fresh ()
  | Some c -> (
      match on c with
      | Error (true, _) -> fresh ()
      | r -> Result.map_error snd r)

let backoff_cap_s = 2.0

(* Jittered exponential backoff: the daemon's [retry_after_ms] hint is
   the base, doubled per attempt, capped at {!backoff_cap_s}, then
   scaled by a uniform factor in [0.5, 1.0) so a burst of rejected
   clients does not re-dogpile the queue in lockstep. *)
let backoff_s rng ~retry_after_ms ~attempt =
  let base = float_of_int (max 1 retry_after_ms) /. 1000.0 in
  let exp = base *. (2.0 ** float_of_int (min attempt 24)) in
  Float.min exp backoff_cap_s *. (0.5 +. Random.State.float rng 0.5)

(* The one retry loop, behind [submit] and [stream_open]: run
   [attempt] again while its reply ([reply] of its result) is
   [Rejected] and both [retries] and the [retry_budget_s] budget
   remain, sleeping a jittered backoff in between. *)
let retrying ~retries ~retry_budget_s ~reply attempt =
  let rng = lazy (Random.State.make_self_init ()) in
  let give_up_ns =
    Int64.add (Telemetry.Clock.now_ns ())
      (Int64.of_float (retry_budget_s *. 1e9))
  in
  let rec go n =
    match attempt () with
    | Ok x as r -> (
        match reply x with
        | Protocol.Rejected { retry_after_ms; _ }
          when n < retries && Telemetry.Clock.now_ns () < give_up_ns ->
            let delay = backoff_s (Lazy.force rng) ~retry_after_ms ~attempt:n in
            let left =
              Int64.to_float (Int64.sub give_up_ns (Telemetry.Clock.now_ns ()))
              /. 1e9
            in
            Unix.sleepf (Float.max 0.0 (Float.min delay left));
            go (n + 1)
        | _ -> r)
    | Error _ as e -> e
  in
  go 0

let submit ?(retries = 0) ?(retry_budget_s = 30.0) ~socket sub =
  retrying ~retries ~retry_budget_s ~reply:Fun.id (fun () ->
      request ~socket (Protocol.Submit sub))

let status ~socket =
  match request ~socket Protocol.Status with
  | Ok (Protocol.Status_reply s) -> Ok s
  | Ok r -> Error ("unexpected reply: " ^ Protocol.encode_response r)
  | Error _ as e -> e

let metrics ~socket =
  match request ~socket Protocol.Metrics with
  | Ok (Protocol.Metrics_reply text) -> Ok text
  | Ok r -> Error ("unexpected reply: " ^ Protocol.encode_response r)
  | Error _ as e -> e

let ping ~socket =
  match request ~socket Protocol.Ping with
  | Ok Protocol.Pong -> true
  | _ -> false

let shutdown ~socket =
  match request ~socket Protocol.Shutdown with
  | Ok Protocol.Stopping -> Ok ()
  | Ok r -> Error ("unexpected reply: " ^ Protocol.encode_response r)
  | Error _ as e -> e

(* ---- streaming sessions ------------------------------------------ *)

type session = {
  s_socket : string;
  s_conn : conn;
  s_sid : int;
  mutable s_alive : bool;
}

let session_sid s = s.s_sid

let session_teardown s =
  if s.s_alive then begin
    s.s_alive <- false;
    close_conn s.s_conn
  end

let stream_abort = session_teardown

(* Any failed exchange poisons the session: the daemon has already
   aborted it server-side (stream errors close the connection), so
   tear down the descriptor rather than resynchronize. *)
let session_exchange s req =
  if not s.s_alive then Error "stream session is closed"
  else
    match exchange ~socket:s.s_socket s.s_conn req with
    | Ok (Protocol.Failed { code; message; _ }) ->
        session_teardown s;
        Error (Printf.sprintf "%s: %s" code message)
    | Ok (Protocol.Error msg) ->
        session_teardown s;
        Error ("daemon: " ^ msg)
    | Error (_, msg) ->
        session_teardown s;
        Error msg
    | Ok _ as ok -> ok

let stream_open ?(retries = 0) ?(retry_budget_s = 30.0) ~socket sub =
  (* Each attempt is a fresh connection of its own, never an idle one,
     kept only by the one the daemon opens a session on.  Seat
     exhaustion is backpressure, not failure: it is retried like a
     rejected submission. *)
  let attempt () =
    match connect ~socket with
    | Error _ as e -> e
    | Ok c -> (
        match exchange ~socket c (Protocol.Stream_open sub) with
        | Ok (Protocol.Stream_opened _ as r) -> Ok (r, Some c)
        | r ->
            close_conn c;
            Result.map (fun r -> (r, None)) (Result.map_error snd r))
  in
  match retrying ~retries ~retry_budget_s ~reply:fst attempt with
  | Ok (Protocol.Stream_opened { sid }, Some c) ->
      Ok { s_socket = socket; s_conn = c; s_sid = sid; s_alive = true }
  | Ok (Protocol.Rejected { reason; retry_after_ms }, _) ->
      Error
        (Printf.sprintf "rejected: %s (retry after %d ms)" reason
           retry_after_ms)
  | Ok (Protocol.Failed { code; message; _ }, _) ->
      Error (Printf.sprintf "%s: %s" code message)
  | Ok (r, _) -> Error ("unexpected reply: " ^ Protocol.encode_response r)
  | Error _ as e -> e

let stream_append s chunk =
  match
    session_exchange s (Protocol.Stream_append { sid = s.s_sid; chunk })
  with
  | Ok (Protocol.Stream_ack { records; _ }) -> Ok records
  | Ok r ->
      session_teardown s;
      Error ("unexpected reply: " ^ Protocol.encode_response r)
  | Error _ as e -> e

let verdict_of_response s = function
  | Protocol.Stream_verdict v -> Ok v
  | r ->
      session_teardown s;
      Error ("unexpected reply: " ^ Protocol.encode_response r)

let stream_flush s =
  match session_exchange s (Protocol.Stream_flush { sid = s.s_sid }) with
  | Ok r -> verdict_of_response s r
  | Error _ as e -> e

let stream_close s =
  match session_exchange s (Protocol.Stream_close { sid = s.s_sid }) with
  | Ok r ->
      let v = verdict_of_response s r in
      session_teardown s;
      v
  | Error _ as e -> e

let wait_ready ?(timeout_s = 5.0) ~socket () =
  let deadline =
    Int64.add (Telemetry.Clock.now_ns ())
      (Int64.of_float (timeout_s *. 1e9))
  in
  let rec poll () =
    if ping ~socket then true
    else if Telemetry.Clock.now_ns () >= deadline then false
    else begin
      Unix.sleepf 0.01;
      poll ()
    end
  in
  poll ()
