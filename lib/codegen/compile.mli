(** Compiling verified program summaries into executable dataflow plans.

    This is the executable half of Casper's code generator (§6.3): the
    same summary that is pretty-printed as Spark/Hadoop/Flink source
    (see {!Emit_source}) is compiled here into a {!Mapreduce.Plan.t} of
    OCaml closures so it actually runs on the engine. API variants are
    selected from λ types exactly as Appendix C's translation rules do —
    and, as §6.3 requires, [reduceByKey] is used only when the reduction
    is commutative-associative, with the safe [groupByKey] fold
    otherwise. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Value = Casper_common.Value
module Plan = Mapreduce.Plan

exception Codegen_error of string

type translated = {
  plan : Plan.t;
  summary : Ir.summary;
  read_outputs : Value.t list -> (string * Value.t) list;
}

(** Compile a verified summary for a fragment, against an entry
    environment (free scalars + output initial values). *)
val compile :
  Minijava.Ast.program -> F.t -> Eval.env -> Ir.summary -> translated
