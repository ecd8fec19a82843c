(** The simulated distributed MapReduce engine.

    Plans execute in memory for real results while the engine accounts
    per-stage data volumes; wall-clock is charged against a
    {!Cluster.t} profile, with in-memory volumes scaled by a [scale]
    factor to the nominal workload size (see DESIGN.md,
    Substitutions). *)

module Value = Casper_common.Value

exception Engine_error of string

(** Raised when an execution's cooperative cancellation token
    ({!Config.t} [cancel]) reports true: it is polled at plan
    entry, before each stage and every 4,096 records of a stage's
    record loop. A grouped stage it interrupts has swept its spill temp
    files when it propagates. *)
exception Cancelled

(** Volume accounting for one executed stage. *)
type stage_metrics = {
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

(** A dataset cache of engine runs ({!Cache}, DESIGN.md §13): an entry
    is the {!run} a plan object produced, served whole to the next run
    of the same plan object over the same dataset lists. Because the
    type is transparent, the whole {!Cache} API — [stats], [find],
    [put], … — applies to it. *)
type cache = run Cache.t

(** [make_cache ?budget ()] — a fresh cache; [budget] ≤ 0 or absent
    means unbounded. *)
val make_cache : ?budget:int -> unit -> cache

val cache_stats : cache -> Cache.stats

(** The one execution-configuration surface for the engine and the
    session layer ([Exec.Config] re-exports this module).

    A {!t} record is the only way to configure an execution:
    {!run_plan}, [Runner.run_summary] and [Exec.Session.create] each
    take one [?config]. A [None] field means the built-in value — no
    spill, spill files under the system temp directory, no cache,
    session concurrency 1 — at every level; no process-global default
    sits between a field and the built-in. No field carries domains: an
    engine run executes on the domain that calls it, and a session
    spawns its own runners.

    The environment enters only through {!of_env}, which reads
    [CASPER_MEM_BUDGET], [CASPER_CACHE_BUDGET] and [CASPER_SPILL_DIR].
    A binary that wants the environment calls it once and passes the
    record on; the library itself never reads these variables. Session
    concurrency has no variable: the binary that runs a session sets
    it. *)
module Config : sig
  (** Everything an execution may want decided for it. Every field is
      optional; [None] means the built-in value. *)
  type t = {
    obs : Casper_obs.Obs.ctx option;
        (** observability context (default: disabled) *)
    memory_budget : int option;
        (** spill budget in bytes (default, or [<= 0]: in-memory) *)
    spill_dir : string option;
        (** directory spill files are created under (default: the
            system temp directory); it must exist *)
    cache : cache option;  (** dataset cache (default: none) *)
    cluster : Cluster.t option;
        (** default backend for session jobs submitted without one *)
    concurrency : int option;  (** session job-slot count (default 1) *)
    cancel : (unit -> bool) option;
        (** cooperative cancellation token, polled as {!Cancelled}
            says; returning [true] makes the engine raise it *)
  }

  (** All fields [None]: every knob takes its built-in value. *)
  val default : t

  (** {!default} with the environment captured as explicit fields:
      [memory_budget] from [CASPER_MEM_BUDGET], [cache] a fresh cache
      of [CASPER_CACHE_BUDGET] bytes, [spill_dir] from
      [CASPER_SPILL_DIR]. A numeric variable that is unset, or not a
      positive integer, leaves its field [None]; a non-integer also
      warns once. An unset or empty [CASPER_SPILL_DIR] leaves
      [spill_dir] [None]. Each call reads the environment afresh and
      builds a new cache. *)
  val of_env : unit -> t
end

(** Execute a plan over named in-memory datasets under [config]
    (default {!Config.default}: every knob at its built-in value).

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

    [config.cache] (default none) serves a plan, or a join side, run
    again from its previous run, keyed by identity — the same plan
    object, the same dataset lists, an equal backend and resolved spill
    budget — with outputs and stage metrics byte-identical to
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
  ?config:Config.t ->
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
