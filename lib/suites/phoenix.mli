(** The Phoenix suite (§7.1): standard MapReduce problems — WordCount,
    StringMatch, 3D Histogram, Linear Regression, KMeans, PCA, Matrix
    Multiplication — in their sequential Java forms (the paper used the
    Java translations from the MOLD work). 11 translatable fragments, of
    which Casper handled 7: three failures need loops inside transformer
    functions (KMeans assignment, PCA covariance, Matrix
    Multiplication) and one times out during synthesis (the histogram
    peak search). *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
