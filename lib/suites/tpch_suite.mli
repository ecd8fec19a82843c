(** The TPC-H suite (§7.1): sequential Java implementations of Q1, Q6,
    Q15 and Q17 — written by hand exactly as the paper's authors did —
    covering aggregations, group-bys, joins and nested queries. 10 code
    fragments, all translated by Casper. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
