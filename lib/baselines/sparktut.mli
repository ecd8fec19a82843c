(** Reference implementations of the iterative algorithms from the Spark
    examples repository (§7.2, Figure 7c).

    The tutorial PageRank caches the links RDD and co-partitions ranks
    with links, so each of the 10 iterations avoids re-reading and
    re-shuffling the edge list; Casper's generated code does neither
    ("Casper currently does not generate any cache() statements, nor
    does it co-partition data"), which is why the reference runs ~1.3×
    faster. For logistic regression both sides are a single map+reduce
    per iteration and there is "no noticeable difference". *)

module Value = Casper_common.Value

(** Simulated time for [iters] tutorial PageRank iterations. Thanks to
    cache(), the input read cost is paid once, not per iteration. *)
val pagerank_time :
  cluster:Mapreduce.Cluster.t ->
  scale:float -> iters:int -> (string * Value.t list) list -> float

(** Simulated time for [iters] tutorial logistic-regression iterations,
    each one map+reduce. *)
val logreg_time :
  cluster:Mapreduce.Cluster.t ->
  scale:float -> iters:int -> (string * Value.t list) list -> float
