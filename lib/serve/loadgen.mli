(** Open-loop Zipfian load generator: drives a {!Server} in process
    ([Direct], the tests) or over TCP ([Tcp], [discoctl load]).

    Open loop: arrival [k] fires at [k/rate] seconds after start
    {e regardless} of whether earlier requests completed, so a saturated
    server sees queueing and shedding instead of the coordinated
    omission a closed loop would hide. Queries are drawn from the pool
    Zipf-distributed (skew [zipf_s]) by a deterministic generator —
    same seed, same request sequence. *)

type transport =
  | Direct of Server.t
      (** in-process: each arrival calls {!Server.submit} *)
  | Tcp of { host : string; port : int }
      (** each arrival opens one connection and speaks one
          [query] line of the protocol *)

type result = {
  r_sent : int;
  r_completed : int;
  r_shed : int;
  r_errors : int;
  r_duration_s : float;  (** wall time from first arrival to last reply *)
  r_qps : float;  (** completed answers per second *)
  r_p50_ms : float;
  r_p99_ms : float;
  r_p999_ms : float;
      (** percentiles of completed-request latency (submit to reply),
          wall-clock ms; 0 when nothing completed *)
}

val run :
  ?zipf_s:float ->
  ?seed:int ->
  ?tenants:string list ->
  queries:string array ->
  rate:float ->
  duration_s:float ->
  transport ->
  result
(** [run ~queries ~rate ~duration_s transport] issues
    [rate *. duration_s] arrivals, one thread each, tenants assigned
    round-robin (default a single tenant ["t0"]). [zipf_s] defaults to
    1.1, [seed] to 42. Blocks until every arrival has its reply. Raises
    [Invalid_argument] on an empty pool, non-positive rate or
    duration. *)

val pp_result : Format.formatter -> result -> unit
