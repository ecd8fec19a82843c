(** Tests for the cost model: Eqn 2–4 arithmetic, stage composition,
    the ϵ penalty, dominance pruning, and the Figure 8d worked example. *)

module Ir = Casper_ir.Lang
module Cost = Casper_cost.Cost
module Infer = Casper_ir.Infer

let check = Alcotest.(check bool)

let tenv = { Infer.vars = []; structs = [] }
let record_ty _ = Ir.TString
let card _ = 1000.0
let est ?(gp = 1.0) () = Cost.static_estimator ~guard_prob:gp ()

let cost ?gp s =
  Cost.cost_of_summary tenv record_ty card (est ?gp ()) s

let mk_map ?guard key value =
  { Ir.m_params = [ "w" ]; emits = [ { Ir.guard; payload = Ir.KV (key, value) } ] }

let add_r = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Binop (Ir.Add, Ir.Var "v1", Ir.Var "v2") }
let or_r = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Binop (Ir.Or, Ir.Var "v1", Ir.Var "v2") }

let keyed_bool ?guard () =
  {
    Ir.pipeline =
      Ir.Reduce (Ir.Map (Ir.Data "d", mk_map ?guard (Ir.Var "w") (Ir.CBool true)), or_r);
    bindings = [ ("o", Ir.AtKey (Casper_common.Value.Str "o")) ];
  }

let test_map_cost_formula () =
  (* map-only: Wm(=1) · N · sizeOf(pair) · p; pair = (string 40, bool 10)
     + 8 overhead = 58 bytes *)
  let s =
    { Ir.pipeline = Ir.Map (Ir.Data "d", mk_map (Ir.Var "w") (Ir.CBool true));
      bindings = [ ("o", Ir.Whole) ] }
  in
  Alcotest.(check (float 1.0)) "map cost" (1000.0 *. 58.0) (cost s)

let test_guard_probability_scales () =
  let g = Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k") in
  let s = keyed_bool ~guard:g () in
  check "p=0 < p=1" true (cost ~gp:0.0 s < cost ~gp:1.0 s);
  check "p=0 leaves only fixed reduce input" true (cost ~gp:0.0 s < 1.0)

(* ϵ comes from the verifier's judgement: [or] is commutative-associative
   over booleans, keep-left is not *)
let test_non_ca_penalty () =
  let non_ca = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Var "v1" } in
  let s lr =
    {
      Ir.pipeline =
        Ir.Reduce (Ir.Map (Ir.Data "d", mk_map (Ir.Var "w") (Ir.CBool true)), lr);
      bindings = [ ("o", Ir.AtKey (Casper_common.Value.Str "o")) ];
    }
  in
  let src = Ir.Map (Ir.Data "d", mk_map (Ir.Var "w") (Ir.CBool true)) in
  check "or is CA" true (Cost.reduce_comm_assoc tenv record_ty src or_r);
  check "keep-left is not CA" false
    (Cost.reduce_comm_assoc tenv record_ty src non_ca);
  let c lr = Cost.cost_of_summary tenv record_ty card (est ()) (s lr) in
  check "Wcsg penalty applies" true (c non_ca > c or_r *. 10.0)

let test_dominance () =
  (* unguarded (a) always costs at least as much as guarded (c) *)
  let a = keyed_bool () in
  let c = keyed_bool ~guard:(Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k")) () in
  check "(c) dominates (a)" true
    (Cost.dominates tenv record_ty card c a);
  check "(a) does not dominate (c)" true
    (not (Cost.dominates tenv record_ty card a c))

let test_prune_dominated () =
  let a = keyed_bool () in
  let c = keyed_bool ~guard:(Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k")) () in
  let survivors =
    Cost.prune_dominated tenv record_ty card
      [ (a, "a"); (c, "c") ]
  in
  check "only (c) survives" true (List.map snd survivors = [ "c" ])

(* Figure 8d: solutions (b) and (c) are not statically comparable *)
let test_fig8_incomparable () =
  let sol_b =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( Ir.Data "d",
                {
                  Ir.m_params = [ "w" ];
                  emits =
                    [
                      {
                        Ir.guard = None;
                        payload =
                          Ir.Val
                            (Ir.MkTuple
                               [
                                 Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k1");
                                 Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k2");
                               ]);
                      };
                    ];
                } ),
            {
              Ir.r_left = "v1";
              r_right = "v2";
              r_body =
                Ir.MkTuple
                  [
                    Ir.Binop (Ir.Or, Ir.TupleGet (Ir.Var "v1", 0), Ir.TupleGet (Ir.Var "v2", 0));
                    Ir.Binop (Ir.Or, Ir.TupleGet (Ir.Var "v1", 1), Ir.TupleGet (Ir.Var "v2", 1));
                  ];
            } );
      bindings = [ ("k1f", Ir.Proj (Some 0)); ("k2f", Ir.Proj (Some 1)) ];
    }
  in
  let sol_c = keyed_bool ~guard:(Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k1")) () in
  (match sol_b.Ir.pipeline with
  | Ir.Reduce (src, lr) ->
      check "tuple-or is CA" true (Cost.reduce_comm_assoc tenv record_ty src lr)
  | _ -> Alcotest.fail "(b) is a reduce");
  check "(b) vs (c) incomparable" true
    ((not (Cost.dominates tenv record_ty card sol_b sol_c))
    && not (Cost.dominates tenv record_ty card sol_c sol_b));
  (* and the crossover exists: (c) cheaper at p=0, (b) cheaper at p=1 *)
  check "(c) wins at p=0" true (cost ~gp:0.0 sol_c < cost ~gp:0.0 sol_b);
  check "(b) wins at p=1" true (cost ~gp:1.0 sol_b < cost ~gp:1.0 sol_c)

let test_untypeable_max_float () =
  (* an ill-typed payload (bool arithmetic) must price the summary out
     of contention, not crash the pruner *)
  let bad_payload =
    {
      Ir.pipeline =
        Ir.Map
          ( Ir.Data "d",
            mk_map (Ir.Var "w")
              (Ir.Binop (Ir.Add, Ir.CBool true, Ir.CBool false)) );
      bindings = [ ("o", Ir.Whole) ];
    }
  in
  check "ill-typed payload -> max_float" true
    (cost bad_payload = Float.max_float);
  (* wrong lambda arity over a plain (untupled) source *)
  let bad_arity =
    {
      Ir.pipeline =
        Ir.Map
          ( Ir.Data "d",
            {
              Ir.m_params = [ "a"; "b" ];
              emits = [ { Ir.guard = None; payload = Ir.Val (Ir.Var "a") } ];
            } );
      bindings = [ ("o", Ir.Whole) ];
    }
  in
  check "bad arity -> max_float" true (cost bad_arity = Float.max_float);
  (* a typeable rival dominates the untypeable one, never the reverse *)
  let good = keyed_bool () in
  check "typeable dominates untypeable" true
    (Cost.dominates tenv record_ty card good bad_payload);
  check "untypeable never dominates" true
    (not
       (Cost.dominates tenv record_ty card bad_payload
          good));
  let survivors =
    Cost.prune_dominated tenv record_ty card
      [ (bad_payload, "bad"); (good, "good") ]
  in
  check "pruner drops the untypeable summary" true
    (List.map snd survivors = [ "good" ])

let test_dominance_corner_ties () =
  (* dominance is strict: identical costs at both probability corners
     must not let either solution disqualify the other *)
  let g = Ir.Binop (Ir.Eq, Ir.Var "w", Ir.CStr "k") in
  let a = keyed_bool ~guard:g () in
  let b = keyed_bool ~guard:g () in
  check "equal costs at p=0" true (cost ~gp:0.0 a = cost ~gp:0.0 b);
  check "equal costs at p=1" true (cost ~gp:1.0 a = cost ~gp:1.0 b);
  check "no self-dominance on ties" true
    ((not (Cost.dominates tenv record_ty card a b))
    && not (Cost.dominates tenv record_ty card b a));
  let survivors =
    Cost.prune_dominated tenv record_ty card
      [ (a, "a"); (b, "b") ]
  in
  check "ties both survive pruning" true
    (List.map snd survivors = [ "a"; "b" ])

let prop_cost_monotone_in_n =
  QCheck.Test.make ~name:"cost is monotone in N" ~count:50
    QCheck.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (n1, n2) ->
      let s = keyed_bool () in
      let c n =
        Cost.cost_of_summary tenv record_ty
          (fun _ -> float_of_int n)
          (est ()) s
      in
      (n1 <= n2) = (c n1 <= c n2))

let suite =
  [
    ( "cost.model",
      [
        Alcotest.test_case "map cost formula" `Quick test_map_cost_formula;
        Alcotest.test_case "guard probability" `Quick
          test_guard_probability_scales;
        Alcotest.test_case "non-CA penalty" `Quick test_non_ca_penalty;
        Alcotest.test_case "dominance" `Quick test_dominance;
        Alcotest.test_case "prune dominated" `Quick test_prune_dominated;
        Alcotest.test_case "Fig 8d incomparability" `Quick
          test_fig8_incomparable;
        Alcotest.test_case "untypeable summaries cost max_float" `Quick
          test_untypeable_max_float;
        Alcotest.test_case "dominance corners: ties are incomparable" `Quick
          test_dominance_corner_ties;
      ] );
    ( "cost.props",
      [ Testenv.qcheck prop_cost_monotone_in_n ] );
  ]
