(** The MOLD baseline (Radoi et al., OOPSLA'14) — a syntax-directed,
    rule-based Java→Spark translator.

    MOLD is closed source; the paper obtained its generated code from the
    authors. We reimplement the documented behaviour of those outputs as
    AST-directed rewrite rules, including the inefficiencies §7.2
    reports:

    - StringMatch: "MOLD emitted a key-value pair for every word in the
      dataset" and "used separate MapReduce operations to compute the
      result for each keyword" (1.44× slower than Casper).
    - LinearRegression: "its implementation zipped the input RDD with
      its index as a pre-processing step, almost doubling the size of
      input data" (2.34× slower).
    - Histogram / Matrix Multiplication: translations were semantically
      correct but grouped unboundedly and "failed to execute on the
      cluster because they ran out of memory".
    - PCA / KMeans: no rule applies.

    Unlike Casper there is no verification — a rule either fires on the
    AST shape or the translation fails. *)

module F = Casper_analysis.Fragment
module Plan = Mapreduce.Plan

type result =
  | Translated of translation
  | Out_of_memory
      (** a rule fired but the plan groups unboundedly; it dies on the
          cluster *)
  | No_rule  (** no rewrite rule matches this loop shape *)

and translation = {
  plans : (string * (Minijava.Interp.env -> Plan.t)) list;
      (** one plan per output variable (MOLD splits jobs per output),
          closed over the entry environment for free variables *)
  zip_preprocess : bool;  (** the zipWithIndex inefficiency *)
  describe : string;
}

(** Apply the first matching rule (classical syntax-directed dispatch). *)
val translate_fragment : F.t -> result
