(** Running translated fragments on the simulated cluster, end to end:
    convert live inputs into records, execute the compiled plan, rebuild
    output variables, report metrics and modeled wall-clock. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value

type result = {
  outputs : (string * Value.t) list;  (** rebuilt output variables *)
  run : Mapreduce.Engine.run;  (** volume metrics *)
  time_s : float;  (** modeled wall-clock at nominal scale *)
}

(** A fragment's datasets at an entry state, in record form (list
    elements as themselves, counted arrays as (i, a\[i\], …), matrices
    as (i, j, v)). *)
val datasets_of :
  Minijava.Ast.program ->
  F.t ->
  Minijava.Interp.env ->
  (string * Value.t list) list

(** Execute one verified summary for a fragment under [config],
    forwarded to {!Mapreduce.Engine.run_plan}. The plan is recompiled
    (fresh closures) on every call, so lineage-cache reuse across calls
    needs a plan compiled once and [Engine.run_plan] driven directly;
    a [config.cache] here still serves repeats within a single plan
    (join sides). *)
val run_summary :
  ?config:Mapreduce.Engine.Config.t ->
  cluster:Mapreduce.Cluster.t ->
  scale:float ->
  Minijava.Ast.program ->
  F.t ->
  Minijava.Interp.env ->
  Ir.summary ->
  result

(** Execute the sequential original on the same entry state; returns
    final outputs and the modeled single-core wall-clock. *)
val run_sequential :
  scale:float ->
  ?passes:int ->
  Minijava.Ast.program ->
  F.t ->
  Minijava.Interp.env ->
  (string * Value.t) list * float

(** Do translated outputs match the sequential ones (with canonical Map
    ordering and float tolerance)? *)
val outputs_agree :
  F.t -> (string * Value.t) list -> (string * Value.t) list -> bool
