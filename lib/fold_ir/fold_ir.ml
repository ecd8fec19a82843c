(** The Fold-IR extension (paper §7.5).

    To demonstrate that Casper's translation machinery is not coupled to
    its own IR, the paper implemented the fold-based IR of Emani et
    al.'s SIGMOD'16 work inside Casper — the [fold] construct itself
    took 5 lines, plus verifier support — and synthesized Fold-IR
    summaries for the whole Ariths suite with no incremental grammars,
    just a constant bound on expression size.

    We do the same: a [fold(data, init, λ(acc, x))] summary form, its
    evaluator, verification via the same prefix-invariant checking used
    for the MapReduce IR, and a flat enumerative search over λ bodies
    built from the fragment's grammar pools. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Value = Casper_common.Value
module G = Casper_synth.Grammar
module Vc = Casper_vcgen.Vc

(* The construct itself — the paper's "5 lines of code". *)
type summary = {
  dataset : string;
  output : string;
  acc : string;  (** accumulator parameter name *)
  params : string list;  (** record component parameters *)
  body : Ir.expr;  (** new accumulator value *)
}

(* the body is staged once per fold, with slots [acc; params...] *)
let eval_fold (env : Eval.env) (s : summary) (init : Value.t)
    (records : Value.t list) : Value.t =
  let body = Eval.stage env (s.acc :: s.params) s.body in
  let bind = Eval.param_slots ~lead:1 s.params in
  List.fold_left
    (fun acc r ->
      let slots = bind r in
      slots.(0) <- acc;
      body slots)
    init records

let pp ppf (s : summary) =
  Fmt.pf ppf "%s = fold(%s, %s₀, (%s, %s) -> %a)" s.output s.dataset
    s.output s.acc
    (String.concat ", " s.params)
    Ir.pp_expr s.body

(* ------------------------------------------------------------------ *)
(* Verification: the same three Hoare clauses, discharged over prefixes
   of the data by the MapReduce IR's own walk ([Vc.check_denotation]),
   with the fold as the outputs' denotation (folds satisfy the prefix
   invariant definitionally, so only the body equivalence is at
   stake). *)

let denote (s : summary) (entry : Minijava.Interp.env) datasets : Eval.env =
  let records = match datasets with (_, rs) :: _ -> rs | [] -> [] in
  [ (s.output, eval_fold entry s (List.assoc s.output entry) records) ]

let verify ?(seed = 2203) ?(count = 48) prog (frag : F.t) (s : summary) :
    bool =
  let dom = Casper_verify.Statesgen.full_domain frag in
  let batch = Casper_verify.Statesgen.gen_batch ~seed ~count dom prog frag in
  List.for_all
    (fun params ->
      match Vc.entry_of_params prog frag params with
      | exception Minijava.Interp.Runtime_error _ -> true
      | entry -> (
          match Vc.check_denotation prog frag entry (denote s entry) with
          | Vc.Holds | Vc.State_skipped _ -> true
          | Vc.Fails _ | Vc.Ir_error _ -> false))
    batch

(* ------------------------------------------------------------------ *)
(* Flat search: candidate bodies over {acc} ∪ record params ∪ scalars,
   one operator layer plus guarded accumulation, constant size bound
   (no incremental grammar hierarchy — matching the paper's setup).
   [candidates] yields the candidate folds of a single-scalar-output
   fragment. *)

let candidates prog (frag : F.t) : summary Seq.t =
  match frag.outputs with
  | [ (out, oty, F.KScalar) ] ->
      let pools = G.build prog frag in
      let params = List.map fst (Casper_synth.Lift.record_params frag) in
      let acc = "acc" in
      let ty = Casper_analysis.Analyze.ir_ty oty in
      let terms =
        Ir.Var acc
        :: List.filter (fun e -> Ir.expr_size e <= 6) (G.exprs_of_ty pools ty)
      in
      let ops =
        match ty with
        | Ir.TInt | Ir.TFloat ->
            [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Min; Ir.Max ]
        | Ir.TBool -> [ Ir.And; Ir.Or ]
        | _ -> []
      in
      let combos =
        List.concat_map
          (fun op ->
            List.map (fun t -> Ir.Binop (op, Ir.Var acc, t)) (G.cap 24 terms))
          ops
      in
      let guards = G.cap 12 pools.G.bools in
      let guarded =
        List.concat_map
          (fun g -> List.map (fun b -> Ir.If (g, b, Ir.Var acc)) combos)
          guards
      in
      List.to_seq (combos @ guarded)
      |> Seq.map (fun body ->
             {
               dataset = F.primary_dataset frag;
               output = out;
               acc;
               params;
               body;
             })
  | _ -> Seq.empty

type outcome = { found : summary list; complete : bool; tried : int }

let find_single prog (frag : F.t) : summary option * int =
  let tried = ref 0 in
  let found =
    Seq.find_map
      (fun s ->
        incr tried;
        (* quick screen on a small batch, then full verification *)
        if verify ~count:8 prog frag s && verify prog frag s then Some s
        else None)
      (candidates prog frag)
  in
  (found, !tried)

(** Synthesize Fold-IR summaries for a fragment: one fold per scalar
    output (a fragment with several accumulators is a product of
    independent folds). [complete] is true when every output got one. *)
let find_summary prog (frag : F.t) : outcome =
  let scalars =
    List.filter (fun (_, _, k) -> k = F.KScalar) frag.outputs
  in
  if List.length scalars <> List.length frag.outputs || scalars = [] then
    { found = []; complete = false; tried = 0 }
  else
    let results =
      List.map
        (fun out -> find_single prog { frag with F.outputs = [ out ] })
        scalars
    in
    {
      found = List.filter_map fst results;
      complete = List.for_all (fun (s, _) -> s <> None) results;
      tried = List.fold_left (fun a (_, t) -> a + t) 0 results;
    }
