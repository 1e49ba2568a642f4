(** The long-running serving surface: concurrent query sessions with
    admission control, load shedding and per-tenant fair queueing.

    A server owns a fixed pool of worker threads — the {e in-flight
    admission limit}: at most that many queries execute at once.
    Arrivals beyond the limit queue per tenant, and workers drain the
    tenant queues round-robin so one chatty tenant cannot starve the
    rest. Once the total backlog reaches the queue bound, further
    arrivals are {e shed} with a partial-answer-style rejection carrying
    the whole query as its residual — the client can resubmit it later,
    exactly like a paper-style partial answer whose every source was
    unavailable.

    The server knows nothing about mediators: {!create} takes the one
    function every worker thread executes queries with. The workers are
    identical and keep no state of their own; whatever that function
    shares (in [discoctl serve], one mediator) must be safe to call from
    several threads at once. Tests inject a function that blocks on a
    barrier to observe the admission limit deterministically. *)

type reply =
  | Answered of { body : string; elapsed_ms : float }
      (** the worker's answer and its wall-clock service time *)
  | Shed of { residual : string }
      (** rejected at admission: the backlog already held [queue_bound]
          requests.  [residual] is the unserved query, resubmittable
          verbatim. *)
  | Failed of string  (** the worker raised; the message, one line *)

type health = {
  h_workers : int;  (** the in-flight admission limit *)
  h_queued : int;  (** requests admitted but not yet executing *)
  h_inflight : int;  (** requests executing right now *)
  h_completed : int;
  h_shed : int;
  h_errors : int;
}

type t

val create :
  ?inflight:int ->
  ?queue_bound:int ->
  ?metrics:Disco_obs.Metrics.t ->
  worker:(tenant:string -> string -> reply) ->
  unit ->
  t
(** [create ~worker ()] starts [inflight] worker threads (default 4);
    each executes the queries it picks with [worker ~tenant oql], so at
    most [inflight] calls of [worker] run at once. [queue_bound]
    (default 64) caps the admitted-but-waiting backlog. [metrics]
    (default a fresh registry) receives [serve.requests], [serve.shed],
    [serve.completed], [serve.errors] and the [serve.latency_ms]
    histogram; it is also what the [metrics] protocol verb renders.
    Raises [Invalid_argument] on a non-positive [inflight] or negative
    [queue_bound]. *)

val submit : t -> tenant:string -> string -> reply
(** Submit one query and block until its reply. Returns [Shed]
    immediately when the backlog is full, and [Failed] without executing
    when the server is stopping. Safe to call from any thread. *)

val health : t -> health

val metrics : t -> Disco_obs.Metrics.t

val stop : t -> unit
(** Refuse new submissions, let the workers drain the backlog, and join
    them. Idempotent. *)

(** {1 The line protocol}

    One request per line, one reply line per request:
    {v
    query <tenant> <oql...>   ->  ok <elapsed_ms> <answer oql>
                                  shed <residual oql>
                                  error <message>
    health                    ->  ok workers=.. queued=.. inflight=..
                                     completed=.. shed=.. errors=..
    metrics                   ->  ok <metrics json>
    quit                      ->  ok bye            (closes the session)
    shutdown                  ->  ok shutting down  (stops the server)
    v}
    A request line longer than {!max_line_bytes} (newline excluded) is
    answered with [error line too long], and the session closes. *)

val max_line_bytes : int
(** The longest request line a session reads: 1 MiB. *)

val serve_tcp : t -> ?host:string -> port:int -> unit -> unit
(** Bind, accept sessions (one thread per connection, requests within a
    session served in order), and block until a [shutdown] verb arrives
    or {!shutdown_requested} fires; then {!stop} the server and return.
    [host] defaults to ["127.0.0.1"]. *)

val shutdown_requested : t -> unit
(** Ask a running {!serve_tcp} loop to wind down (as the [shutdown] verb
    does). Safe from any thread; a no-op when nothing is listening. *)
