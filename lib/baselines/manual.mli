(** Hand-written Spark reference implementations (§7.2).

    The paper hired Spark developers through UpWork to rewrite the
    non-SQL benchmarks (Appendix E.2 lists the hiring bar). These plans
    play that role: idiomatic single-pass implementations, including the
    one case where the human beat Casper by exploiting domain knowledge
    — the 3D Histogram developer knew RGB values are bounded by 256·3
    and used Spark's [aggregate] with a fixed-size array, avoiding the
    per-key shuffle Casper generates. *)

module Value = Casper_common.Value
module Plan = Mapreduce.Plan

(** WordCount: the canonical mapToPair + reduceByKey. *)
val word_count : Plan.t

(** StringMatch: emit only on match (the paper's efficient encoding). *)
val string_match : key1:Value.t -> key2:Value.t -> Plan.t

(** Linear regression: one pass folding the five sums as a tuple. *)
val linear_regression : Plan.t

(** 3D Histogram via the developer's [aggregate] trick: each partition
    folds into a bounded 768-slot array, only the per-partition arrays
    are combined — modeled as a map stage emitting per-partition
    pre-combined entries and a cheap keyed merge. *)
val histogram_aggregate : Plan.t

(** Wikipedia page count: classic keyed sum. *)
val wikipedia_pagecount : Plan.t

(** Anscombe transform: a pure map. *)
val anscombe : Plan.t
