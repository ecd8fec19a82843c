(** The generated runtime monitor (paper §5.2, §7.4).

    When several verified summaries survive static cost pruning because
    their costs depend on the input data (emit-guard probabilities,
    distinct key counts, join selectivities), Casper emits all of them
    plus a monitor that samples the first k values of the input at run
    time (k = 5000 in the paper), estimates the unknowns from the
    sample, plugs them into the cost formulas of Eqns 2–4, and runs the
    cheapest implementation. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Value = Casper_common.Value
module Cost = Casper_cost.Cost

let sample_k = 5000

type estimate = {
  guard_probs : (string * float) list;  (** printed guard → probability *)
  distinct_keys : float;
  sample_size : int;
}

(** Estimate emit-guard probabilities and the distinct-key count from a
    sample of input records. Guards are evaluated with λm parameters
    bound to each sampled record — the same counting the generated
    monitor code performs. Guards and λms are staged once, then run on
    every sampled record. *)
let estimate_from_sample (frag : F.t) (entry : Eval.env)
    (summaries : Ir.summary list) (sample : Value.t list) : estimate =
  let params = List.map fst (Casper_synth.Lift.record_params frag) in
  let bind = Eval.param_slots params in
  (* records that bind to the fragment's parameters, with their slots *)
  let bound =
    List.filter_map (fun r -> try Some (r, bind r) with _ -> None) sample
  in
  let n = List.length bound in
  let guards =
    List.concat_map
      (fun (s : Ir.summary) ->
        let rec collect = function
          | Ir.Data _ -> []
          | Ir.Map (src, lm) ->
              List.filter_map (fun e -> e.Ir.guard) lm.Ir.emits @ collect src
          | Ir.Reduce (src, _) -> collect src
          | Ir.Join (a, b) -> collect a @ collect b
        in
        collect s.Ir.pipeline)
      summaries
    |> List.sort_uniq compare
  in
  let prob_of g =
    if n = 0 then 0.5
    else
      let g = Eval.stage entry params g in
      let fired =
        List.length
          (List.filter
             (fun (_, slots) ->
               match g slots with
               | Value.Bool true -> true
               | _ -> false
               | exception _ -> false)
             bound)
      in
      float_of_int fired /. float_of_int n
  in
  let guard_probs =
    List.map (fun g -> (Fmt.str "%a" Ir.pp_expr g, prob_of g)) guards
  in
  (* distinct keys actually emitted by the first map stage *)
  let distinct =
    let tbl = Value.Tbl.create 64 in
    List.iter
      (fun (s : Ir.summary) ->
        let rec first_map = function
          | Ir.Map (Ir.Data _, lm) -> Some lm
          | Ir.Map (src, _) | Ir.Reduce (src, _) -> first_map src
          | Ir.Join (a, _) -> first_map a
          | Ir.Data _ -> None
        in
        match first_map s.Ir.pipeline with
        | None -> ()
        | Some lm ->
            let f = Eval.apply_lam_m entry lm in
            List.iter
              (fun (r, _) ->
                match f r with
                | `KV kvs ->
                    List.iter
                      (fun (k, _) -> Value.Tbl.replace tbl k ())
                      kvs
                | `V _ -> ()
                | exception _ -> ())
              bound)
      summaries;
    float_of_int (max 1 (Value.Tbl.length tbl))
  in
  { guard_probs; distinct_keys = distinct; sample_size = n }

(** The measured estimator: Eqns 2–4 with sampled probabilities. *)
let measured_estimator (est : estimate) : Cost.estimator =
  {
    Cost.prob =
      (fun g ->
        match g with
        | None -> 1.0
        | Some g -> (
            match List.assoc_opt (Fmt.str "%a" Ir.pp_expr g) est.guard_probs with
            | Some p -> p
            | None -> 0.5));
    distinct_keys = (fun ~n_in -> Float.min n_in est.distinct_keys);
    join_selectivity = 0.1;
  }

type choice = {
  chosen : int;  (** index into the candidate list *)
  costs : float list;  (** dynamic cost of each candidate *)
  estimate : estimate;
}

(** The monitor's decision: sample, estimate, cost each candidate, pick
    the cheapest (§5.2 "the summary with the lowest cost is executed"). *)
let choose (prog : Minijava.Ast.program) (frag : F.t)
    (entry : Eval.env) (candidates : Ir.summary list) ~(n : float)
    (sample : Value.t list) : choice =
  (* the generated monitor reads only the first k values of the live
     input (§5.2), however large the dataset *)
  let sample = List.filteri (fun i _ -> i < sample_k) sample in
  let est = estimate_from_sample frag entry candidates sample in
  let tenv = Casper_synth.Cegis.tenv_of_frag prog frag in
  let record_ty = Casper_synth.Lift.record_ty_of frag in
  let estimator = measured_estimator est in
  let costs =
    List.map
      (fun s -> Cost.cost_of_summary tenv record_ty (fun _ -> n) estimator s)
      candidates
  in
  let chosen, _ =
    List.fold_left
      (fun (best_i, best_c) (i, c) ->
        if c < best_c then (i, c) else (best_i, best_c))
      (0, Float.max_float)
      (List.mapi (fun i c -> (i, c)) costs)
  in
  { chosen; costs; estimate = est }
