(** The Stats suite (§7.1): 19 fragments of statistical analysis code in
    the style of the MagPie repository — vector and matrix operations
    such as Covariance, Standard Error and Hadamard Product. Casper
    translated 18 of 19; the one failure convolves with a
    variable-sized kernel, which needs loops inside the transformer
    function. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
