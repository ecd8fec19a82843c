(** Concrete-syntax code generation (Appendix C).

    Pretty-prints a verified summary as Java source against the Spark
    RDD, Hadoop MapReduce, and Flink DataSet APIs, selecting the API
    variant from λ types (flatMapToPair vs mapToPair vs map, reduceByKey
    vs reduce vs groupByKey), and emitting the glue the paper describes
    in §6.3: context creation, RDD/DataSet conversion, broadcast of free
    variables, and the alias guard of footnote 1 when a fragment takes
    two potentially-aliased inputs. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang

(** The summary as Spark RDD code; [ca] (default [true]) says whether
    its reductions may use [reduceByKey]. *)
val spark : ?ca:bool -> F.t -> Ir.summary -> string

(** The summary as Flink DataSet code; [ca] as for {!spark}. *)
val flink : ?ca:bool -> F.t -> Ir.summary -> string

(** The summary as Hadoop MapReduce code; [ca] as for {!spark}. *)
val hadoop : ?ca:bool -> F.t -> Ir.summary -> string

(** Non-blank lines of generated source. *)
val loc_of : string -> int
