(** The one execution-configuration surface for the engine and the
    session layer ([Exec.Config] re-exports this module).

    A {!t} record is the only way to configure an execution:
    {!Engine.run_plan}, [Runner.run_summary] and [Exec.Session.create]
    each take one [?config]. A [None] field means the built-in value —
    no spill, spill files under the system temp directory, no cache,
    session concurrency 1 — at every level; no
    process-global default sits between a field and the built-in. No
    field carries domains: an engine run executes on the domain that
    calls it, and a session spawns its own runners.

    The environment enters only through this module: {!of_env} reads
    [CASPER_MEM_BUDGET], [CASPER_CACHE_BUDGET] and [CASPER_SPILL_DIR].
    A binary that wants the environment calls it once and passes the
    record on; the library itself never reads these variables. Session
    concurrency has no variable: the binary that runs a session sets
    it. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs

(* ------------------------------------------------------------------ *)
(* Types shared with the engine                                        *)

(** Volume accounting for one executed stage (re-exported as
    {!Engine.stage_metrics}). *)
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

(** A materialized plan result held by the dataset cache: the output
    partition plus everything a served run must report as if it had
    recomputed (DESIGN.md §13). Constructed by the engine only; exposed
    so {!Engine.cache} and the config [cache] field share one type. *)
type cached_run = {
  c_batch : Batch.t;
  c_stages : stage_metrics list;
  c_input_records : int;
  c_input_bytes : int;
}

(** A lineage-keyed dataset cache for engine runs ({!Cache}). *)
type cache = cached_run Cache.t

(** [make_cache ?budget ()] — a fresh cache; [budget] ≤ 0 or absent
    means unbounded. *)
val make_cache : ?budget:int -> unit -> cache

val cache_stats : cache -> Cache.stats

(* ------------------------------------------------------------------ *)
(* The configuration record                                            *)

(** Everything an execution may want decided for it. Every field is
    optional; [None] means the built-in value. *)
type t = {
  obs : Obs.ctx option;  (** observability context (default: disabled) *)
  memory_budget : int option;
      (** spill budget in bytes (default, or [<= 0]: in-memory) *)
  spill_dir : string option;
      (** directory spill files are created under (default: the system
          temp directory); it must exist *)
  cache : cache option;  (** lineage cache (default: none) *)
  cluster : Cluster.t option;
      (** default backend for session jobs submitted without one *)
  concurrency : int option;  (** session job-slot count (default 1) *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation token, polled before each stage and
          every 4,096 records inside one; returning [true] makes the
          engine raise [Engine.Cancelled] *)
}

(** All fields [None]: every knob takes its built-in value. *)
val default : t

(** {!default} with the environment captured as explicit fields:
    [memory_budget] from [CASPER_MEM_BUDGET], [cache] a fresh cache of
    [CASPER_CACHE_BUDGET] bytes, [spill_dir] from [CASPER_SPILL_DIR].
    A numeric variable that is unset, or not a positive integer, leaves
    its field [None]; a non-integer also warns once. An unset or empty
    [CASPER_SPILL_DIR] leaves [spill_dir] [None]. Each call reads the
    environment afresh and builds a new cache. *)
val of_env : unit -> t
