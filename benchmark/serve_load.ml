(* serve_zipf's side of the wire: spawning `discoctl serve`, and an
   open-loop load generator that runs in one thread over two persistent,
   pipelined connections. Arrival [k] goes out on connection [k mod 2] as
   soon as it is due, whether or not earlier replies have come back; its
   latency runs from the due time to the reply line, so a stall is charged
   to every request that waited behind it. *)

let now () = Unix.gettimeofday ()

(* -- the server process -- *)

let children : int list ref = ref []

let reap pid =
  let deadline = now () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

(* Kill whatever is still running when the benchmark exits, also when it
   is interrupted or terminated. *)
let () =
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigint; Sys.sigterm ];
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* One command line, one reply line, on a fresh connection. *)
let exchange port cmd =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (cmd ^ "\n") 0;
      let ic = Unix.in_channel_of_descr fd in
      input_line ic)

type server = { pid : int; port : int }

(* Start `discoctl serve` and wait until [health] answers; returns the
   server and the seconds that took. *)
let spawn ~discoctl ~args =
  let port = free_port () in
  let argv =
    Array.of_list ((discoctl :: "serve" :: args) @ [ "--port"; string_of_int port ])
  in
  let t0 = now () in
  let pid = Unix.create_process discoctl argv Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  let deadline = t0 +. 30.0 in
  let rec await () =
    match exchange port "health" with
    | line when String.length line >= 2 && String.sub line 0 2 = "ok" -> ()
    | _ | (exception (Unix.Unix_error _ | End_of_file | Sys_error _)) ->
        if now () > deadline then begin
          reap pid;
          failwith "discoctl serve did not answer health within 30 s"
        end;
        Unix.sleepf 0.005;
        await ()
  in
  await ();
  ({ pid; port }, now () -. t0)

let stop s =
  (try ignore (exchange s.port "shutdown")
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  reap s.pid

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
                    kb /. 1024.0)
            | _ -> go ()
          in
          go ())

(* -- replies -- *)

type reply = Ok of { elapsed_ms : float; body : string } | Shed | Failed of string

let parse_reply line =
  match String.index_opt line ' ' with
  | Some i when String.sub line 0 i = "ok" -> (
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match String.index_opt rest ' ' with
      | Some j -> (
          match float_of_string_opt (String.sub rest 0 j) with
          | Some elapsed_ms ->
              Ok { elapsed_ms; body = String.sub rest (j + 1) (String.length rest - j - 1) }
          | None -> Failed line)
      | None -> Failed line)
  | Some i when String.sub line 0 i = "shed" -> Shed
  | _ -> Failed line

type sample = {
  s_idx : int;  (** pool index of the text sent *)
  s_latency_ms : float;  (** due time to reply line *)
  s_recv : float;  (** arrival time of the reply *)
  s_reply : reply;
  s_bytes : int;  (** reply line length *)
}

type run = {
  samples : sample list;  (** in arrival order; unanswered arrivals are missing *)
  sent : int;
  lost : int;  (** arrivals with no reply by the drain deadline *)
  lateness_ms : float;  (** largest gap between a due time and its send *)
  started : float;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  pending : (float * int) Queue.t;  (** due time, pool index *)
}

let open_conns port = Array.init 2 (fun _ ->
    { fd = connect port; buf = Buffer.create 65536; pending = Queue.create () })

let close_conns conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

let chunk = Bytes.create 65536

(* Read what is available on [c] and turn each complete line into a
   sample. *)
let drain_conn c ~on_sample =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise End_of_file
  | n ->
      let recv = now () in
      Buffer.add_subbytes c.buf chunk 0 n;
      let data = Buffer.contents c.buf in
      let rec lines start =
        match String.index_from_opt data start '\n' with
        | Some stop ->
            let line = String.sub data start (stop - start) in
            (match Queue.take_opt c.pending with
            | Some (due, idx) ->
                on_sample
                  {
                    s_idx = idx;
                    s_latency_ms = (recv -. due) *. 1000.0;
                    s_recv = recv;
                    s_reply = parse_reply line;
                    s_bytes = String.length line;
                  }
            | None -> ());
            lines (stop + 1)
        | None ->
            Buffer.clear c.buf;
            Buffer.add_substring c.buf data start (String.length data - start)
      in
      lines 0
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()

(* Offer one request per entry of [arrivals] (offsets in seconds from the
   start); [next ()] names the pool index of each. Waits for every reply,
   or 10 seconds after the last due time. *)
let open_loop conns ~texts ~arrivals ~next =
  let drain_s = 10.0 in
  let started = now () in
  let samples = ref [] in
  let lateness = ref 0.0 in
  let sent = ref 0 in
  let count = Array.length arrivals in
  let due k = started +. arrivals.(k) in
  let last_due = due (max 0 (count - 1)) in
  let outstanding () = Array.exists (fun c -> not (Queue.is_empty c.pending)) conns in
  let on_sample s = samples := s :: !samples in
  let rec loop () =
    let t = now () in
    while !sent < count && due !sent <= t do
      let k = !sent in
      let idx = next () in
      let c = conns.(k mod Array.length conns) in
      write_all c.fd (Printf.sprintf "query t%d %s\n" (k mod 2) texts.(idx)) 0;
      Queue.push (due k, idx) c.pending;
      lateness := Float.max !lateness (now () -. due k);
      incr sent
    done;
    let t = now () in
    if !sent >= count && (not (outstanding ()) || t > last_due +. drain_s) then ()
    else begin
      let timeout =
        if !sent < count then Float.max 0.0 (due !sent -. t)
        else Float.max 0.0 (last_due +. drain_s -. t)
      in
      let waiting =
        Array.to_list conns
        |> List.filter (fun c -> not (Queue.is_empty c.pending))
        |> List.map (fun c -> c.fd)
      in
      (match Unix.select waiting [] [] timeout with
      | ready, _, _ ->
          Array.iter (fun c -> if List.memq c.fd ready then drain_conn c ~on_sample) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  let lost = Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 conns in
  Array.iter (fun c -> Queue.clear c.pending; Buffer.clear c.buf) conns;
  {
    samples = List.rev !samples;
    sent = !sent;
    lost;
    lateness_ms = !lateness *. 1000.0;
    started;
  }

(* Answered replies per second, from the first due time to the last
   reply. *)
let throughput run =
  let ok = List.filter (fun s -> match s.s_reply with Ok _ -> true | _ -> false) run.samples in
  match List.rev ok with
  | [] -> 0.0
  | last :: _ -> float_of_int (List.length ok) /. (last.s_recv -. run.started)

(* A ladder step passes when nothing is shed, fails or goes missing, p99
   latency is at most 50 ms, and at least 97% of the offered requests
   completed within the step's own window. *)
let step_passes ~duration_s run =
  let ok = List.filter (fun s -> match s.s_reply with Ok _ -> true | _ -> false) run.samples in
  let bad = run.sent - List.length ok in
  let in_window =
    List.length (List.filter (fun s -> s.s_recv <= run.started +. duration_s) ok)
  in
  bad = 0
  && ok <> []
  && Disco_bench_kit.Stats.percentile (List.map (fun s -> s.s_latency_ms) ok) 0.99
     <= 50.0
  && float_of_int in_window >= 0.97 *. float_of_int run.sent

(* -- the reference for reply bodies: `discoctl query` under the same
   federation flags -- *)

let strip_ws s =
  let b = Buffer.create (String.length s) in
  String.iter (function ' ' | '\n' | '\r' | '\t' -> () | c -> Buffer.add_char b c) s;
  Buffer.contents b

let discoctl_answer ~discoctl ~args text =
  let ic = Unix.open_process_args_in discoctl (Array.of_list ((discoctl :: "query" :: args) @ [ text ])) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("discoctl query failed on: " ^ text));
  (* the answer runs from "answer: " up to the "stats:" line *)
  let rec collect acc started = function
    | [] -> acc
    | l :: rest ->
        if String.length l >= 6 && String.sub l 0 6 = "stats:" then acc
        else if started then collect (acc ^ l) true rest
        else if String.length l >= 8 && String.sub l 0 8 = "answer: " then
          collect (String.sub l 8 (String.length l - 8)) true rest
        else collect acc false rest
  in
  strip_ws (collect "" false (List.rev !lines))
