(** The simulated distributed MapReduce engine.

    Plans execute in memory for real results while the engine accounts
    per-stage data volumes; wall-clock is charged against a
    {!Cluster.t} profile, with in-memory volumes scaled by a [scale]
    factor to the nominal workload size (see DESIGN.md,
    Substitutions). *)

module Value = Casper_common.Value

exception Engine_error of string

(** Raised when an execution's cooperative cancellation token
    ({!Exec_config.t} [cancel]) reports true: it is polled at plan
    entry, before each stage and every 4,096 records of a stage's
    record loop. A grouped stage it interrupts has swept its spill temp
    files when it propagates. *)
exception Cancelled

(** Volume accounting for one executed stage (defined in
    {!Exec_config} so the config surface shares the cache type;
    re-exported here unchanged). *)
type stage_metrics = Exec_config.stage_metrics = {
  label : string;
  records_in : int;
  records_out : int;
  bytes_in : int;
  bytes_out : int;
  bytes_shuffled : int;  (** bytes crossing the network at sample scale *)
  is_shuffle : bool;
  combined : bool;
      (** a combined (commutative-associative) reduction: it shipped its
          combined output, and at nominal scale ships at most one
          combined record per key per worker *)
}

(** A completed plan execution. *)
type run = {
  output : Value.t list;
  stages : stage_metrics list;  (** join inputs included *)
  input_records : int;
  input_bytes : int;
}

(** A materialized plan result held by the dataset cache: output
    partition plus the metrics a served run reports as if recomputed. *)
type cached_run = Exec_config.cached_run

(** A lineage-keyed dataset cache for engine runs ({!Cache}, DESIGN.md
    §13); the same type as {!Exec_config.cache}, so a cache built
    either way can travel through a config record. Because the type is
    transparent, the whole {!Cache} API — [stats], [find], [put], … —
    applies to it. *)
type cache = cached_run Cache.t

(** [make_cache ?budget ()] — a fresh cache; [budget] ≤ 0 or absent
    means unbounded. *)
val make_cache : ?budget:int -> unit -> cache

val cache_stats : cache -> Cache.stats

(** Execute a plan over named in-memory datasets under [config]
    (default {!Exec_config.default}: every knob at its built-in value).

    [config.obs] (default disabled) records an
    "engine.run_plan" span with one child span per stage, carrying
    record and shuffle-volume counters. Every stage runs on the calling
    domain: the run starts no domain and uses no pool, and the cluster
    it stands for is simulated from the measured volumes (DESIGN.md
    §10). A map stage directly followed by a shuffle runs as one pass
    that feeds each emitted record into the shuffle's grouping or fold
    (a map-side combine), with the metrics of the two stages run apart.
    [config.cancel] is polled as {!Cancelled} says.

    [config.memory_budget] bounds the estimated live bytes a grouped
    shuffle (reduceByKey / groupByKey) may buffer before spilling sorted
    runs of {!Codec}-encoded records to temp files, merged back at
    reduce time ({!Spill}; DESIGN.md §12). Absent or [<= 0]: the
    in-memory path. Outputs, stage metrics and traces are byte-identical
    at any budget.

    [config.cache] (default none) serves repeated side-effect-free
    subplans (join sides, cross-call reuse) from their previous
    materialization, keyed by lineage — plan structure with physically
    identical closures, source dataset identities, backend and resolved
    spill budget — with outputs and stage metrics byte-identical to
    recomputation, on any domain (a session's jobs share its cache on
    whichever domain runs them). An [engine.cache] span with
    [cache_hits] / [cache_misses] / [cache_bytes] / [cache_evictions]
    counters records what the cache did. The cache's own budget is the
    only bound on it: [config.memory_budget] is the grouped stages'
    spill budget and never evicts a cache entry (DESIGN.md §13).
    @raise Engine_error on unknown or duplicate dataset names, shape
    errors, shuffles on a cluster with no worker slots, and spill I/O
    failures.
    @raise Cancelled when [config]'s cancellation token reports true. *)
val run_plan :
  ?config:Exec_config.t ->
  cluster:Cluster.t ->
  datasets:(string * Value.t list) list ->
  Plan.t ->
  run

(** Modeled wall-clock seconds on [cluster] at nominal scale: the
    closed-form sum of job start-up, the input read and each stage's
    overhead, compute, shuffle and materialization. *)
val simulate_time : cluster:Cluster.t -> scale:float -> run -> float

(** Modeled single-core wall-clock of the sequential original.
    [passes] is the number of data scans (iterative algorithms > 1). *)
val sequential_time :
  scale:float -> ?passes:int -> records:int -> bytes:int -> unit -> float

(** Total bytes emitted by non-shuffle stages, at sample scale. *)
val total_emitted : run -> int

(** Total bytes shuffled, at sample scale: a combined reduction counts
    its combined output, every other shuffle its input. *)
val total_shuffled : run -> int

(** Shuffled bytes at nominal scale on [cluster], honoring the combiner
    bound the time model applies: [workers] × combined output. *)
val effective_shuffled : cluster:Cluster.t -> scale:float -> run -> float
