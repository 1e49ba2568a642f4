module Metrics = Disco_obs.Metrics

let log_src = Logs.Src.create "disco.serve" ~doc:"Disco serving layer"

module Log = (val Logs.src_log log_src)

type reply =
  | Answered of { body : string; elapsed_ms : float }
  | Shed of { residual : string }
  | Failed of string

type health = {
  h_workers : int;
  h_queued : int;
  h_inflight : int;
  h_completed : int;
  h_shed : int;
  h_errors : int;
}

type pending = {
  q_tenant : string;
  q_oql : string;
  mutable q_reply : reply option;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* new work arrived, or the server is stopping *)
  finished : Condition.t;  (* some pending request got its reply *)
  queues : (string, pending Queue.t) Hashtbl.t;
  mutable rr : string list;
      (* round-robin tenant order: the tenant just served rotates to the
         back, so a chatty tenant cannot starve the others *)
  mutable queued : int;
  mutable inflight : int;
  mutable completed : int;
  mutable shed : int;
  mutable errors : int;
  queue_bound : int;
  n_workers : int;
  mutable stopping : bool;
  mutable workers : Thread.t list;
  mutable listen_fd : Unix.file_descr option;
  metrics : Metrics.t;
  worker : tenant:string -> string -> reply;
}

(* Pop the next request round-robin across tenants.  Caller holds the
   lock. *)
let pick_rr t =
  let rec go seen = function
    | [] -> None
    | tenant :: rest -> (
        match Hashtbl.find_opt t.queues tenant with
        | Some q when not (Queue.is_empty q) ->
            t.rr <- rest @ List.rev seen @ [ tenant ];
            Some (Queue.pop q)
        | _ -> go (tenant :: seen) rest)
  in
  go [] t.rr

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    let rec await () =
      match pick_rr t with
      | Some p -> Some p
      | None ->
          if t.stopping then None
          else begin
            Condition.wait t.work t.lock;
            await ()
          end
    in
    match await () with
    | None -> Mutex.unlock t.lock
    | Some p ->
        t.queued <- t.queued - 1;
        t.inflight <- t.inflight + 1;
        Mutex.unlock t.lock;
        let reply =
          try t.worker ~tenant:p.q_tenant p.q_oql
          with e -> Failed (Printexc.to_string e)
        in
        (match reply with
        | Answered { elapsed_ms; _ } ->
            Metrics.observe t.metrics "serve.latency_ms" elapsed_ms
        | Shed _ | Failed _ -> ());
        Mutex.lock t.lock;
        t.inflight <- t.inflight - 1;
        (match reply with
        | Answered _ ->
            t.completed <- t.completed + 1;
            Metrics.incr t.metrics "serve.completed"
        | Failed _ ->
            t.errors <- t.errors + 1;
            Metrics.incr t.metrics "serve.errors"
        | Shed _ -> ());
        p.q_reply <- Some reply;
        Condition.broadcast t.finished;
        Mutex.unlock t.lock;
        loop ()
  in
  loop ()

let create ?(inflight = 4) ?(queue_bound = 64) ?metrics ~worker () =
  if inflight < 1 then invalid_arg "Server.create: inflight must be positive";
  if queue_bound < 0 then
    invalid_arg "Server.create: queue_bound must be non-negative";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queues = Hashtbl.create 8;
      rr = [];
      queued = 0;
      inflight = 0;
      completed = 0;
      shed = 0;
      errors = 0;
      queue_bound;
      n_workers = inflight;
      stopping = false;
      workers = [];
      listen_fd = None;
      metrics =
        (match metrics with Some m -> m | None -> Metrics.create ());
      worker;
    }
  in
  t.workers <- List.init inflight (fun _ -> Thread.create worker_loop t);
  t

let submit t ~tenant oql =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    Failed "server is shutting down"
  end
  else if t.queued >= t.queue_bound then begin
    t.shed <- t.shed + 1;
    Metrics.incr t.metrics "serve.shed";
    Mutex.unlock t.lock;
    Log.info (fun m -> m "shed %s query (backlog %d full)" tenant t.queue_bound);
    Shed { residual = oql }
  end
  else begin
    Metrics.incr t.metrics "serve.requests";
    let p = { q_tenant = tenant; q_oql = oql; q_reply = None } in
    let q =
      match Hashtbl.find_opt t.queues tenant with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace t.queues tenant q;
          t.rr <- t.rr @ [ tenant ];
          q
    in
    Queue.push p q;
    t.queued <- t.queued + 1;
    Condition.signal t.work;
    while p.q_reply = None do
      Condition.wait t.finished t.lock
    done;
    Mutex.unlock t.lock;
    Option.get p.q_reply
  end

let health t =
  Mutex.lock t.lock;
  let h =
    {
      h_workers = t.n_workers;
      h_queued = t.queued;
      h_inflight = t.inflight;
      h_completed = t.completed;
      h_shed = t.shed;
      h_errors = t.errors;
    }
  in
  Mutex.unlock t.lock;
  h

let metrics t = t.metrics

let stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let workers = t.workers in
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Thread.join workers

(* -- the line protocol -- *)

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let health_line h =
  Printf.sprintf "ok workers=%d queued=%d inflight=%d completed=%d shed=%d errors=%d"
    h.h_workers h.h_queued h.h_inflight h.h_completed h.h_shed h.h_errors

let shutdown_requested t =
  Mutex.lock t.lock;
  let fd = t.listen_fd in
  t.listen_fd <- None;
  Mutex.unlock t.lock;
  (* [Unix.shutdown] on the listening socket forces a thread already
     blocked in [accept] to fail (a bare [close] would leave it blocked
     forever on Linux); the failure is the accept loop's signal to wind
     down. *)
  match fd with
  | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let max_line_bytes = 1 lsl 20

(* [input_line] that stops at [max_line_bytes]: [None] for a longer
   line, so a client that never sends a newline cannot grow the session's
   buffer without bound. *)
let read_line ic =
  let buf = Buffer.create 128 in
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Buffer.contents buf)
    | _ when Buffer.length buf >= max_line_bytes -> None
    | c ->
        Buffer.add_char buf c;
        go ()
    | exception End_of_file when Buffer.length buf > 0 ->
        Some (Buffer.contents buf)
  in
  go ()

let handle_session t conn =
  let ic = Unix.in_channel_of_descr conn in
  let oc = Unix.out_channel_of_descr conn in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match read_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | None -> send "error line too long"
    | Some line -> (
        let line = String.trim line in
        let verb, rest =
          match String.index_opt line ' ' with
          | Some i ->
              ( String.sub line 0 i,
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              )
          | None -> (line, "")
        in
        match (verb, rest) with
        | "query", rest -> (
            match String.index_opt rest ' ' with
            | None -> send "error usage: query <tenant> <oql>"; loop ()
            | Some i ->
                let tenant = String.sub rest 0 i in
                let oql =
                  String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
                in
                (match submit t ~tenant oql with
                | Answered { body; elapsed_ms } ->
                    send (Printf.sprintf "ok %.3f %s" elapsed_ms (one_line body))
                | Shed { residual } -> send ("shed " ^ one_line residual)
                | Failed msg -> send ("error " ^ one_line msg));
                loop ())
        | "health", _ ->
            send (health_line (health t));
            loop ()
        | "metrics", _ ->
            send ("ok " ^ Metrics.to_json t.metrics);
            loop ()
        | "quit", _ -> send "ok bye"
        | "shutdown", _ ->
            send "ok shutting down";
            shutdown_requested t
        | "", _ -> loop ()
        | _ ->
            send "error unknown command";
            loop ())
  in
  loop ()

let serve_tcp t ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  Mutex.lock t.lock;
  t.listen_fd <- Some fd;
  Mutex.unlock t.lock;
  Log.app (fun m -> m "serving on %s:%d" host port);
  let rec accept_loop () =
    match Unix.accept fd with
    | conn, _ ->
        ignore
          (Thread.create
             (fun () ->
               (try handle_session t conn with _ -> ());
               try Unix.close conn with Unix.Unix_error _ -> ())
             ());
        accept_loop ()
    | exception Unix.Unix_error _ -> ()
    (* listener closed by [shutdown_requested] *)
  in
  accept_loop ();
  shutdown_requested t;
  stop t
