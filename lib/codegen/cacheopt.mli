(** Cache-insertion for iterative workloads.

    §7.2 attributes PageRank's 1.3× gap to the reference implementation
    to Casper "not generating any cache() statements" and points at
    SystemML-style heuristics as the fix. This module implements that
    future-work extension: a heuristic that decides when the generated
    program should cache its input RDD across iterations, plus the
    iterative time model that realizes the saving.

    Heuristic (the standard one): cache when the input will be consumed
    more than once and the bytes saved by not re-reading exceed the
    one-time cost of materializing the dataset in memory. *)

module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster

type decision = {
  cache : bool;
  reread_cost_s : float;  (** total read time avoided over the run *)
  materialize_cost_s : float;  (** one-time in-memory materialization *)
}

(** Whether to cache the input of a job run [iters] times: cache when
    the re-reads it saves cost more than materializing it once. *)
val decide :
  cluster:Cluster.t -> scale:float -> iters:int -> Engine.run -> decision

(** Modeled wall-clock of [iters] iterations of the same job, with or
    without the cache() the heuristic inserts. *)
val iterative_time :
  cluster:Cluster.t ->
  scale:float -> iters:int -> ?cached:bool -> Engine.run -> float

(** Apply the heuristic end to end: decide, then price the better
    variant. Returns (time, cached?). *)
val run_iterative :
  cluster:Cluster.t -> scale:float -> iters:int -> Engine.run -> float * bool
