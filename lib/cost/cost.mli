(** Casper's data-centric cost model (paper §5.1, Eqns 2–4): summary
    cost is the estimated volume of data generated and shuffled by its
    stages. Emit probabilities and distinct-key counts are supplied by
    an {!estimator} — static defaults at compile time, sampled values
    from the runtime monitor (§5.2). *)

module Ir = Casper_ir.Lang
module Infer = Casper_ir.Infer

type estimator = {
  prob : Ir.expr option -> float;
      (** probability that an emit with this guard fires (pᵢ) *)
  distinct_keys : n_in:float -> float;
      (** unique keys a keyed reduce produces given its input count *)
  join_selectivity : float;  (** pj of Eqn 4 *)
}

(** Static defaults: unguarded emits fire always, guarded ones with
    [guard_prob]; distinct keys default to √N. *)
val static_estimator : ?guard_prob:float -> unit -> estimator

(** [reduce_comm_assoc tenv record_ty src lr]: is [lr] commutative and
    associative over the values the pipeline [src] feeds it
    ([Verifier.reducer_props]; [false] when [src] is untypeable)? It
    licenses [reduceByKey] (§6.3); ϵ(λr) in the cost is 1 when the same
    judgement holds and Wcsg = 50 when it does not. *)
val reduce_comm_assoc :
  Infer.tenv -> (string -> Ir.ty) -> Ir.node -> Ir.lam_r -> bool

exception Untypeable

(** Total cost of a summary ([Float.max_float] when untypeable): the sum
    of its stages' costs, composing record counts through the pipeline
    ([count] of §5.1), with the paper's weights Wm = 1, Wr = 2, Wj = 2.
    [record_ty] gives each dataset's element type, [card] its
    cardinality. *)
val cost_of_summary :
  Infer.tenv ->
  (string -> Ir.ty) ->
  (string -> float) ->
  estimator ->
  Ir.summary ->
  float

(** Static dominance: [a] costs no more than [b] at *every* assignment
    of guard probabilities (checked at the p=0 and p=1 corners, valid
    because costs are monotone and linear in each pᵢ). *)
val dominates :
  Infer.tenv ->
  (string -> Ir.ty) ->
  (string -> float) ->
  Ir.summary ->
  Ir.summary ->
  bool

(** Drop summaries dominated by a cheaper one (§5.2). *)
val prune_dominated :
  Infer.tenv ->
  (string -> Ir.ty) ->
  (string -> float) ->
  (Ir.summary * 'a) list ->
  (Ir.summary * 'a) list
