(** Dataset cache with byte-budgeted LRU eviction.

    The cache maps the lineage of a materialized result — the plan
    object that produced it, the source datasets it read, the backend
    it ran on and the spill budget in force — to the result itself, so
    a plan run again (a session job submitted twice, a join side, an
    iterative driver re-running one compiled plan) is served without
    recomputation.

    A {!key} captures that lineage by identity, as Spark's [cache()]
    persists one RDD object: two keys are equal when their plans are
    the same object ([==]), their source dataset lists are physically
    identical, and cluster and spill budget are equal. A plan rebuilt
    alike, even from the same stage values, is a new lineage: the cache
    never compares plan structure.

    Entries are byte-accounted ({!Casper_common.Value} sizes of the
    materialized partition) against an optional budget; inserting past
    the budget evicts entries in least-recently-used order, possibly
    including the entry just inserted. All operations take an internal
    mutex, so lookups are safe from worker domains (DESIGN.md §13). *)

module Value = Casper_common.Value

(** Lineage identity of one materialized plan result. *)
type key

(** Build the key for [plan] run over [datasets] on [cluster] with the
    resolved spill budget [budget]. Only the datasets the plan actually
    reads ({!Plan.sources}) enter the key. *)
val key :
  cluster:Cluster.t ->
  budget:int option ->
  datasets:(string * Value.t list) list ->
  Plan.t ->
  key

(** A cache holding values of type ['a]. *)
type 'a t

type stats = {
  hits : int;
  misses : int;  (** lookups that found no live entry *)
  evictions : int;  (** entries dropped by budget pressure *)
  insertions : int;
  entries : int;  (** live entries right now *)
  bytes : int;  (** live bytes right now *)
  budget : int option;
}

(** [create ?budget ()] — a fresh cache. [budget] ≤ 0 or absent means
    unbounded. *)
val create : ?budget:int -> unit -> 'a t

val budget : 'a t -> int option

(** Lookup; a hit refreshes the entry's recency. *)
val find : 'a t -> key -> 'a option

(** Insert (or replace) an entry accounted at [bytes], then evict
    entries in LRU order until the budget holds — the entry
    just inserted is eligible too, so a cache with budget 1 degenerates
    to a pass-through. Returns the number of evictions. *)
val put : 'a t -> key -> bytes:int -> 'a -> int

val stats : 'a t -> stats
