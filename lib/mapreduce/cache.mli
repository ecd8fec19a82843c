(** Lineage-aware dataset cache with byte-budgeted LRU eviction.

    The cache maps the full lineage of a materialized result — the plan
    that produced it, the source datasets it read, the backend it ran
    on and the spill budget in force — to the result itself, so
    repeated subplans (join sides inside one plan, cross-call reuse in
    iterative workloads) can be served without recomputation.

    A {!key} captures that lineage. Correctness rests on equality, not
    hashing: two keys are equal when their plans are structurally equal
    with every stage closure physically identical ([==]), their source
    dataset lists are physically identical, and cluster and spill
    budget match. The {!fingerprint} is a bucketing hint computed from
    the structural skeleton only (source names, stage constructors,
    labels, flags, backend signature) — no closures and no hash-cons
    ids enter it, so it is stable across {!Casper_ir.Hashcons.clear}
    and re-interning.

    Entries are byte-accounted ({!Casper_common.Value} sizes of the
    materialized partition) against an optional budget; inserting past
    the budget evicts entries in least-recently-used order, possibly
    including the entry just inserted. All operations take an internal
    mutex, so lookups are safe from worker domains (DESIGN.md §13). *)

module Value = Casper_common.Value

(** Lineage identity of one materialized subplan result. *)
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

(** Structural-skeleton hash of the key: a bucketing hint, never an
    equality proof. Stable across {!Casper_ir.Hashcons.clear}. *)
val fingerprint : key -> int

(** Full lineage equality: structural plan skeleton, physically
    identical closures and dataset lists, equal cluster and budget. *)
val equal_key : key -> key -> bool

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
