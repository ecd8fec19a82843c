(** The Iterative suite (§7.1): PageRank and Logistic-Regression-based
    classification, manually implemented as sequential Java. Casper
    translates the data-parallel loop of each iteration; 7 fragments,
    all translated. The workloads run 10 iterations, so the sequential
    baseline scans the data 10 times. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
