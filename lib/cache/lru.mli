(** A bounded least-recently-used map.

    The shared eviction policy behind the mediator's caches: the
    {!Disco_cache.Answer_cache} bounds materialized source answers with
    it, the mediator's plan cache reuses the same module instead of
    growing an unbounded [Hashtbl], and so does the cost model's exact
    history. Keys are hashed structurally; recency is maintained with an
    intrusive doubly-linked list, so [find]/[add]/[remove] are O(1). *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** A fresh cache holding at most [capacity] entries (default 128;
    raises [Invalid_argument] when [capacity < 1]). *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup that marks the entry most-recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency — for inspection paths that must not
    perturb the eviction order. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t key make] is the value at [key], marked
    most-recently used; when [key] is absent, [make ()] is added there
    first (evicting as {!add} does). A hit allocates nothing. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most-recently used; the
    least-recently-used entry is evicted when the cache is over
    capacity. *)

val remove : ('k, 'v) t -> 'k -> unit

val clear : ('k, 'v) t -> unit
(** Drop every entry. The cumulative {!evictions} counter is preserved —
    clearing is not evicting. *)

val evictions : ('k, 'v) t -> int
(** Cumulative count of capacity evictions since creation. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Entries most-recently-used first. *)
