(** Casper's data-centric cost model (paper §5.1, Eqns 2–4).

    The cost of a summary is the estimated volume of data generated and
    shuffled by its stages:

      costm(λm, N, Wm) = Wm · N · Σᵢ sizeOf(emitᵢ) · pᵢ
      costr(λr, N, Wr) = Wr · N · sizeOf(λr) · ϵ(λr)
      costj(N₁, N₂, Wj) = Wj · N₁ · N₂ · sizeOf(emit) · pj

    with weights Wm = 1, Wr = 2, Wj = 2 and Wcsg = 50 (the penalty for a
    reduction that is not commutative-associative), exactly the values
    the paper reports using.

    Stage composition threads the record count: a map stage outputs
    N · Σ pᵢ records; a keyed reduce outputs its number of distinct keys;
    a join outputs N₁·N₂·pj. Emit probabilities pᵢ and distinct-key
    counts are unknown statically; the {!estimator} supplies them —
    either static defaults or values measured by the runtime monitor
    (§5.2). *)

module Ir = Casper_ir.Lang
module Infer = Casper_ir.Infer

(* the paper's weights: Wm = 1, Wr = 2, Wj = 2; Wcsg = 50 penalizes a
   reduction that is not commutative-associative (Eqn 3's ϵ) *)
let w_m = 1.0
let w_r = 2.0
let w_j = 2.0
let w_csg = 50.0

type estimator = {
  prob : Ir.expr option -> float;
      (** probability that an emit with this guard fires *)
  distinct_keys : n_in:float -> float;
      (** number of unique keys a keyed reduce produces, given its input
          record count *)
  join_selectivity : float;
}

(** Static defaults: unguarded emits always fire; guarded emits get
    probability [guard_prob] (evaluated at both 0 and 1 for dominance
    checks); distinct keys default to the square root of the input. *)
let static_estimator ?(guard_prob = 0.5) () =
  {
    prob = (function None -> 1.0 | Some _ -> guard_prob);
    distinct_keys = (fun ~n_in -> Float.max 1.0 (sqrt n_in));
    join_selectivity = 0.1;
  }

(* The one call of the verifier's commutativity/associativity judgement:
   it sets ϵ(λr) below and, through [reduce_comm_assoc], licenses
   [reduceByKey] in codegen (§6.3). *)
let comm_assoc (lr : Ir.lam_r) (vty : Ir.ty) : bool =
  Casper_verify.Verifier.reducer_props lr vty = `Comm_assoc

(** Is λr commutative-associative over the values [src] feeds it? *)
let reduce_comm_assoc (tenv : Infer.tenv) (record_ty : string -> Ir.ty)
    (src : Ir.node) (lr : Ir.lam_r) : bool =
  match Infer.infer_node tenv record_ty src with
  | `KVs (_, vty) | `Plain vty | `Recs vty -> comm_assoc lr vty
  | exception Infer.Ill_typed _ -> false

(* ------------------------------------------------------------------ *)

type stage_cost = { name : string; cost : float; out_count : float }

exception Untypeable

(** Walk a pipeline bottom-up accumulating per-stage costs.
    [record_ty d] gives the element type of dataset [d]; [card d] its
    cardinality. *)
let stage_costs (tenv : Infer.tenv) (record_ty : string -> Ir.ty)
    (card : string -> float) (est : estimator) (pipeline : Ir.node) :
    stage_cost list =
  let elt_ty_of = function
    | `Recs t | `Plain t -> t
    | `KVs (k, v) -> Ir.TTuple [ k; v ]
  in
  let rec go (n : Ir.node) : float (* count *) * stage_cost list =
    match n with
    | Ir.Data d -> (card d, [])
    | Ir.Map (src, lm) ->
        let n_in, costs = go src in
        let src_elt =
          try elt_ty_of (Infer.infer_node tenv record_ty src)
          with Infer.Ill_typed _ -> raise Untypeable
        in
        let params_env =
          match (lm.m_params, src_elt) with
          | [ p ], t -> [ (p, t) ]
          | ps, Ir.TTuple ts when List.length ps = List.length ts ->
              List.combine ps ts
          | _ -> raise Untypeable
        in
        let tenv' = { tenv with Infer.vars = params_env @ tenv.Infer.vars } in
        let emit_cost, out_frac =
          List.fold_left
            (fun (c, frac) { Ir.guard; payload } ->
              let p = est.prob guard in
              let size =
                try
                  match payload with
                  | Ir.KV (k, v) ->
                      Ir.size_of_ty
                        (Ir.TPair (Infer.infer tenv' k, Infer.infer tenv' v))
                  | Ir.Val v -> Ir.size_of_ty (Infer.infer tenv' v)
                with Infer.Ill_typed _ -> raise Untypeable
              in
              (c +. (float_of_int size *. p), frac +. p))
            (0.0, 0.0) lm.emits
        in
        let cost = w_m *. n_in *. emit_cost in
        ( n_in *. out_frac,
          costs @ [ { name = "map"; cost; out_count = n_in *. out_frac } ] )
    | Ir.Reduce (src, lr) ->
        let n_in, costs = go src in
        let src_shape =
          try Infer.infer_node tenv record_ty src
          with Infer.Ill_typed _ -> raise Untypeable
        in
        let vty, rec_size, keyed =
          match src_shape with
          (* a keyed reduction moves whole key-value records (the paper's
             worked example in Fig. 8d charges 50 bytes for a
             (String, Boolean) pair) *)
          | `KVs (k, v) -> (v, Ir.size_of_ty (Ir.TPair (k, v)) - 8, true)
          | `Plain t | `Recs t -> (t, Ir.size_of_ty t, false)
        in
        let eps = if comm_assoc lr vty then 1.0 else w_csg in
        let cost = w_r *. n_in *. float_of_int rec_size *. eps in
        let out = if keyed then est.distinct_keys ~n_in else 1.0 in
        (out, costs @ [ { name = "reduce"; cost; out_count = out } ])
    | Ir.Join (a, b) ->
        let n1, c1 = go a in
        let n2, c2 = go b in
        let out_ty =
          try elt_ty_of (Infer.infer_node tenv record_ty n)
          with Infer.Ill_typed _ -> raise Untypeable
        in
        let out = n1 *. n2 *. est.join_selectivity in
        let cost =
          w_j *. n1 *. n2 *. float_of_int (Ir.size_of_ty out_ty)
          *. est.join_selectivity
        in
        (out, c1 @ c2 @ [ { name = "join"; cost; out_count = out } ])
  in
  snd (go pipeline)

(** Total cost of a summary on [n] input records per dataset. *)
let cost_of_summary (tenv : Infer.tenv) (record_ty : string -> Ir.ty)
    (card : string -> float) (est : estimator) (s : Ir.summary) : float =
  try
    List.fold_left
      (fun acc st -> acc +. st.cost)
      0.0
      (stage_costs tenv record_ty card est s.pipeline)
  with Untypeable -> Float.max_float

(** Static dominance: does [a] cost no more than [b] for *every* possible
    assignment of guard probabilities? Costs are monotone and linear in
    each pᵢ, so checking the corner estimators p = 0 and p = 1 suffices
    (§5.2: solution (a) "can be disqualified at compile time"). *)
let dominates tenv record_ty card (a : Ir.summary) (b : Ir.summary) : bool =
  let at gp =
    let est = static_estimator ~guard_prob:gp () in
    ( cost_of_summary tenv record_ty card est a,
      cost_of_summary tenv record_ty card est b )
  in
  let a0, b0 = at 0.0 and a1, b1 = at 1.0 in
  a0 <= b0 && a1 <= b1 && (a0 < b0 || a1 < b1)

(** Prune summaries that are dominated by a cheaper one in the list
    (§5.2 first paragraph). Keeps the input order of survivors. *)
let prune_dominated tenv record_ty card (sols : (Ir.summary * 'a) list) :
    (Ir.summary * 'a) list =
  List.filter
    (fun (s, _) ->
      not
        (List.exists
           (fun (s', _) -> s' != s && dominates tenv record_ty card s' s)
           sols))
    sols
