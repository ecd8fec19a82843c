(** The Fold-IR extension (paper §7.5): a [fold]-based summary language
    demonstrating that Casper's translation machinery is not coupled to
    its MapReduce IR. Verification reuses the prefix-invariant VC
    machinery; search is a flat enumeration with a constant size bound,
    exactly the paper's setup. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value

(** A fold summary: [output = fold(dataset, output₀, λ(acc, record))]. *)
type summary = {
  dataset : string;
  output : string;
  acc : string;  (** accumulator parameter name *)
  params : string list;  (** record component parameters *)
  body : Ir.expr;  (** the new accumulator value *)
}

val pp : Format.formatter -> summary -> unit

(** Full verification over the large state domain. *)
val verify :
  ?seed:int -> ?count:int -> Minijava.Ast.program -> F.t -> summary -> bool

type outcome = {
  found : summary list;  (** one fold per scalar output *)
  complete : bool;  (** every output variable got a verified fold *)
  tried : int;
}

(** Synthesize Fold-IR summaries for a fragment (multi-accumulator
    fragments are products of independent folds). *)
val find_summary : Minijava.Ast.program -> F.t -> outcome
