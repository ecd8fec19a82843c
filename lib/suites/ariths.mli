(** The Ariths suite (§7.1): 11 simple mathematical functions and
    aggregations collected from prior work — Min, Max, Delta,
    Conditional Sum and friends. One translatable fragment each; Casper
    translated all 11. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
