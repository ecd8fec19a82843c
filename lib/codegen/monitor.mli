(** The generated runtime monitor (paper §5.2, §7.4): sample the first
    [sample_k] input values, estimate emit-guard probabilities and
    distinct key counts, plug them into the cost formulas, run the
    cheapest of the semantically-equivalent implementations. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value

(** The paper samples the first 5000 values. *)
val sample_k : int

type estimate = {
  guard_probs : (string * float) list;
      (** printed guard expression → estimated firing probability *)
  distinct_keys : float;
      (** distinct keys emitted by the first map stage on the sample *)
  sample_size : int;
}

(** Count guard firings and distinct keys over a record sample. *)
val estimate_from_sample :
  F.t -> Casper_ir.Eval.env -> Ir.summary list -> Value.t list -> estimate

(** Eqns 2–4 with the sampled probabilities. *)
val measured_estimator : estimate -> Casper_cost.Cost.estimator

type choice = {
  chosen : int;  (** index of the candidate to execute *)
  costs : float list;  (** dynamic cost of each candidate *)
  estimate : estimate;
}

(** The monitor's decision on a sample of the live input, for a nominal
    record count [n]. Only the first {!sample_k} values of the sample
    are read, however many are passed. *)
val choose :
  Minijava.Ast.program ->
  F.t ->
  Casper_ir.Eval.env ->
  Ir.summary list ->
  n:float ->
  Value.t list ->
  choice
