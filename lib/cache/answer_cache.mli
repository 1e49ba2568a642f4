(** The mediator-side semantic answer cache.

    Caches the result of every completed [exec(repository, expr)] call,
    keyed on the repository name plus a {e normalized} logical expression
    (see {!normalize}), and stamped with the source's
    {!Disco_source.Source.data_version} at answer time. The runtime
    consults the cache before issuing an [exec]:

    - an entry whose version still matches the source is a {b fresh hit}
      and answers the call without touching the source (0 tuples
      shipped);
    - an entry whose version moved is invalid for fresh lookups (it
      counts as [stale] and the exec is re-issued, overwriting it), but
      remains eligible for {b stale serving}: under the mediator's
      [Cached_fallback] semantics a call to an {e unavailable} source is
      answered from the cached fragment when its age is within
      [max_stale_ms], degrading gracefully under outages instead of
      returning a residual query (the §4 staleness discussion made
      operational).

    Entries are bounded by the shared {!Lru} policy; all counters are
    cumulative. *)

module Expr := Disco_algebra.Expr
module V := Disco_value.Value

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 entries. *)

val normalize : Expr.expr -> Expr.expr
(** Canonicalize an expression so equivalent spellings share a cache
    slot: [And]/[Or] chains are flattened and sorted, [=]/[!=] operands
    are ordered, and [>]/[>=] comparisons flip to [<]/[<=]. Purely
    syntactic — semantics are preserved. *)

val key : repo:string -> Expr.expr -> string
(** The cache key: repository name + printed normalized expression.
    Lookups and stores take it ready-made, so an exec run many times
    prints its key once. *)

val find_fresh : t -> key:string -> version:int -> V.t option
(** The cached answer when one exists {e and} its recorded data version
    equals [version]. A version mismatch counts on the [stale] counter
    and misses (the caller re-executes); absence counts on [misses]. *)

val find_stale :
  t -> key:string -> now:float -> max_stale_ms:float -> (V.t * float) option
(** The cached answer regardless of version, provided its age
    ([now - stored_at]) is at most [max_stale_ms]; returns the value and
    the served age. Used by the runtime's [Cached_fallback] path when the
    source is down. Counts on [stale_served]. *)

val store : t -> key:string -> version:int -> now:float -> V.t -> unit
(** Record a completed exec answer (replacing any previous entry for the
    same key), possibly evicting the least-recently-used entry. *)

val invalidate_repo : t -> string -> unit
(** Drop every entry of one repository (e.g. after an out-of-band bulk
    load the version counter cannot describe). *)

(** Cumulative counters. [stale_ms] is the maximum age ever served by
    {!find_stale}. *)
type stats = {
  hits : int;  (** fresh hits: answered from cache, source untouched *)
  misses : int;  (** no entry for the key *)
  stale : int;  (** entry found but its data version had moved *)
  stale_served : int;  (** outage fallbacks served by {!find_stale} *)
  stale_ms : float;
  evictions : int;
  size : int;
  capacity : int;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
