(** Tests for the high-level IR: evaluator semantics of map/reduce/join,
    summary application, type inference and pretty-printing. *)

module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Infer = Casper_ir.Infer
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let vint n = Value.Int n

let ints l = List.map vint l

let id_map params key value =
  { Ir.m_params = params; emits = [ { Ir.guard = None; payload = Ir.KV (key, value) } ] }

let add_r = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Binop (Ir.Add, Ir.Var "v1", Ir.Var "v2") }

(* ---------------- expression evaluation ---------------- *)

let test_eval_arith () =
  let e = Ir.Binop (Ir.Add, Ir.CInt 2, Ir.Binop (Ir.Mul, Ir.CInt 3, Ir.CInt 4)) in
  check "2+3*4" true (Value.equal (Eval.eval_expr [] e) (vint 14));
  let f = Ir.Binop (Ir.Div, Ir.CFloat 1.0, Ir.CFloat 4.0) in
  check "float div" true
    (Value.equal_approx (Eval.eval_expr [] f) (Value.Float 0.25))

let test_eval_minmax_strings () =
  check "min binop" true
    (Value.equal
       (Eval.eval_expr [] (Ir.Binop (Ir.Min, Ir.CInt 3, Ir.CInt (-2))))
       (vint (-2)));
  check "string concat" true
    (Value.equal
       (Eval.eval_expr [] (Ir.Binop (Ir.Add, Ir.CStr "a", Ir.CStr "b")))
       (Value.Str "ab"))

let test_eval_div_zero () =
  match Eval.eval_expr [] (Ir.Binop (Ir.Div, Ir.CInt 1, Ir.CInt 0)) with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected eval error"

let test_eval_tuple_field () =
  let env = [ ("p", Value.Struct ("P", [ ("x", vint 4) ])) ] in
  check "field" true
    (Value.equal (Eval.eval_expr env (Ir.Field (Ir.Var "p", "x"))) (vint 4));
  check "tuple get" true
    (Value.equal
       (Eval.eval_expr []
          (Ir.TupleGet (Ir.MkTuple [ Ir.CInt 7; Ir.CInt 8 ], 1)))
       (vint 8))

let test_eval_if_shortcircuit () =
  (* the else branch divides by zero; must not be evaluated *)
  let e = Ir.If (Ir.CBool true, Ir.CInt 1, Ir.Binop (Ir.Div, Ir.CInt 1, Ir.CInt 0)) in
  check "lazy if" true (Value.equal (Eval.eval_expr [] e) (vint 1));
  let a = Ir.Binop (Ir.And, Ir.CBool false, Ir.Binop (Ir.Eq, Ir.Binop (Ir.Div, Ir.CInt 1, Ir.CInt 0), Ir.CInt 1)) in
  check "lazy and" true (Value.equal (Eval.eval_expr [] a) (Value.Bool false))

(* ---------------- map / reduce / join ---------------- *)

let test_map_keyed () =
  let node = Ir.Map (Ir.Data "d", id_map [ "x" ] (Ir.Var "x") (Ir.CInt 1)) in
  match Eval.eval_node [] [ ("d", ints [ 5; 5; 6 ]) ] node with
  | Eval.Pairs kvs -> check_int "3 pairs" 3 (List.length kvs)
  | _ -> Alcotest.fail "expected pairs"

let test_map_guard () =
  let lm =
    {
      Ir.m_params = [ "x" ];
      emits =
        [
          {
            Ir.guard = Some (Ir.Binop (Ir.Gt, Ir.Var "x", Ir.CInt 0));
            payload = Ir.KV (Ir.CStr "k", Ir.Var "x");
          };
        ];
    }
  in
  match
    Eval.eval_node [] [ ("d", ints [ -1; 2; 3 ]) ] (Ir.Map (Ir.Data "d", lm))
  with
  | Eval.Pairs kvs -> check_int "guard filters" 2 (List.length kvs)
  | _ -> Alcotest.fail "expected pairs"

let test_reduce_by_key () =
  let node =
    Ir.Reduce (Ir.Map (Ir.Data "d", id_map [ "x" ] (Ir.Var "x") (Ir.CInt 1)), add_r)
  in
  match Eval.eval_node [] [ ("d", ints [ 5; 5; 6 ]) ] node with
  | Eval.Pairs kvs ->
      check_int "2 keys" 2 (List.length kvs);
      check "count of 5s" true
        (List.exists (fun (k, v) -> Value.equal k (vint 5) && Value.equal v (vint 2)) kvs)
  | _ -> Alcotest.fail "expected pairs"

(* keys that print alike (1234567.0 and 1234568.0 under %g, Int 7 and
   Float 7.0) are different values, so different groups *)
let test_reduce_keys_by_value () =
  let node =
    Ir.Reduce (Ir.Map (Ir.Data "d", id_map [ "x" ] (Ir.Var "x") (Ir.CInt 1)), add_r)
  in
  let f x = Value.Float x in
  let data = [ f 1234567.0; f 1234568.0; vint 7; f 7.0; f 1234567.0 ] in
  match Eval.eval_node [] [ ("d", data) ] node with
  | Eval.Pairs kvs ->
      check "one group per value" true
        (kvs
        = [ (f 1234567.0, vint 2); (f 1234568.0, vint 1); (vint 7, vint 1);
            (f 7.0, vint 1) ])
  | _ -> Alcotest.fail "expected pairs"

let test_global_reduce () =
  let lm = { Ir.m_params = [ "x" ]; emits = [ { Ir.guard = None; payload = Ir.Val (Ir.Var "x") } ] } in
  match
    Eval.eval_node [] [ ("d", ints [ 1; 2; 3 ]) ]
      (Ir.Reduce (Ir.Map (Ir.Data "d", lm), add_r))
  with
  | Eval.Vals [ v ] -> check "sum 6" true (Value.equal v (vint 6))
  | _ -> Alcotest.fail "expected single value"

let test_reduce_empty () =
  match Eval.eval_node [] [ ("d", []) ] (Ir.Reduce (Ir.Data "d", add_r)) with
  | Eval.Vals [] -> ()
  | _ -> Alcotest.fail "expected empty"

let test_join () =
  let mk d x = Ir.Map (Ir.Data d, id_map [ x ] (Ir.Var x) (Ir.Var x)) in
  match
    Eval.eval_node []
      [ ("a", ints [ 1; 2 ]); ("b", ints [ 2; 2; 3 ]) ]
      (Ir.Join (mk "a" "x", mk "b" "y"))
  with
  | Eval.Pairs kvs ->
      (* key 2 matches twice *)
      check_int "2 matches" 2 (List.length kvs)
  | _ -> Alcotest.fail "expected pairs"

let test_mixed_emits_rejected () =
  let lm =
    {
      Ir.m_params = [ "x" ];
      emits =
        [
          { Ir.guard = None; payload = Ir.KV (Ir.Var "x", Ir.Var "x") };
          { Ir.guard = None; payload = Ir.Val (Ir.Var "x") };
        ];
    }
  in
  match Eval.eval_node [] [ ("d", ints [ 1 ]) ] (Ir.Map (Ir.Data "d", lm)) with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected error on mixed emits"

(* ---------------- summary application ---------------- *)

let test_apply_summary_scalar_default () =
  (* empty data: the scalar keeps its entry value (initiation case) *)
  let s =
    {
      Ir.pipeline =
        Ir.Reduce (Ir.Map (Ir.Data "d", id_map [ "x" ] (Ir.CStr "s") (Ir.Var "x")), add_r);
      bindings = [ ("s", Ir.AtKey (Value.Str "s")) ];
    }
  in
  let out =
    Eval.apply_summary [] [ ("d", []) ] [ ("s", vint 42) ] [ ("s", Eval.Scalar) ] s
  in
  check "default to entry" true (Value.equal (List.assoc "s" out) (vint 42))

let test_apply_summary_array () =
  let s =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( Ir.Data "d",
                {
                  Ir.m_params = [ "i"; "v" ];
                  emits = [ { Ir.guard = None; payload = Ir.KV (Ir.Var "i", Ir.Var "v") } ];
                } ),
            add_r );
      bindings = [ ("a", Ir.Whole) ];
    }
  in
  let records = [ Value.Tuple [ vint 0; vint 5 ]; Value.Tuple [ vint 0; vint 2 ] ] in
  let out =
    Eval.apply_summary []
      [ ("d", records) ]
      [ ("a", Value.List (ints [ 0; 9 ])) ]
      [ ("a", Eval.Arr) ] s
  in
  check "index 0 summed, index 1 kept" true
    (Value.equal (List.assoc "a" out) (Value.List (ints [ 7; 9 ])))

let test_apply_summary_array_oob () =
  let s =
    {
      Ir.pipeline = Ir.Map (Ir.Data "d", id_map [ "x" ] (Ir.CInt 5) (Ir.Var "x"));
      bindings = [ ("a", Ir.Whole) ];
    }
  in
  match
    Eval.apply_summary [] [ ("d", ints [ 1 ]) ]
      [ ("a", Value.List (ints [ 0 ])) ]
      [ ("a", Eval.Arr) ] s
  with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds key must invalidate the summary"

let test_apply_summary_proj () =
  let lm =
    {
      Ir.m_params = [ "x" ];
      emits =
        [ { Ir.guard = None; payload = Ir.Val (Ir.MkTuple [ Ir.Var "x"; Ir.Var "x" ]) } ];
    }
  in
  let tup_r =
    {
      Ir.r_left = "v1";
      r_right = "v2";
      r_body =
        Ir.MkTuple
          [
            Ir.Binop (Ir.Min, Ir.TupleGet (Ir.Var "v1", 0), Ir.TupleGet (Ir.Var "v2", 0));
            Ir.Binop (Ir.Max, Ir.TupleGet (Ir.Var "v1", 1), Ir.TupleGet (Ir.Var "v2", 1));
          ];
    }
  in
  let s =
    {
      Ir.pipeline = Ir.Reduce (Ir.Map (Ir.Data "d", lm), tup_r);
      bindings = [ ("mn", Ir.Proj (Some 0)); ("mx", Ir.Proj (Some 1)) ];
    }
  in
  let out =
    Eval.apply_summary [] [ ("d", ints [ 4; -1; 9 ]) ]
      [ ("mn", vint 100); ("mx", vint (-100)) ]
      [ ("mn", Eval.Scalar); ("mx", Eval.Scalar) ]
      s
  in
  check "min" true (Value.equal (List.assoc "mn" out) (vint (-1)));
  check "max" true (Value.equal (List.assoc "mx" out) (vint 9))

(* reduce over a bag is fold-left in bag order: for assoc+comm reducers
   the result is permutation-independent *)
let prop_reduce_perm_invariant =
  QCheck.Test.make ~name:"assoc reduce is permutation-invariant" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 12) (int_range (-50) 50))
    (fun l ->
      QCheck.assume (l <> []);
      let run data =
        match
          Eval.eval_node []
            [ ("d", data) ]
            (Ir.Reduce (Ir.Data "d", add_r))
        with
        | Eval.Vals [ v ] -> v
        | _ -> Value.Int min_int
      in
      let rng = Casper_common.Rng.create 3 in
      Value.equal (run (ints l)) (run (Casper_common.Rng.shuffle rng (ints l))))

(* ---------------- staged evaluation ---------------- *)

(* The reference λ semantics: [eval_expr] over [bind_params], with the
   evaluation order staged code must keep written out (a key-value emit
   evaluates its value before its key). *)
let ref_lam_m env (lm : Ir.lam_m) elt =
  let ev = Eval.eval_expr (Eval.bind_params env lm.Ir.m_params elt) in
  let kvs = ref [] and vs = ref [] in
  List.iter
    (fun { Ir.guard; payload } ->
      let fire =
        match guard with None -> true | Some g -> Value.as_bool (ev g)
      in
      if fire then
        match payload with
        | Ir.KV (k, v) ->
            let v = ev v in
            let k = ev k in
            kvs := (k, v) :: !kvs
        | Ir.Val v -> vs := ev v :: !vs)
    lm.Ir.emits;
  match (List.rev !kvs, List.rev !vs) with
  | kvs, [] -> `KV kvs
  | [], vs -> `V vs
  | _ -> raise (Eval.Eval_error "λm mixes key-value and plain emits")

let ref_lam_r env (lr : Ir.lam_r) a b =
  Eval.eval_expr ((lr.Ir.r_left, a) :: (lr.Ir.r_right, b) :: env) lr.Ir.r_body

(* the same value, or the same exception constructor and message *)
let outcome (f : unit -> Value.t) : (Value.t, string) result =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_outcome a b =
  match (outcome a, outcome b) with
  | Ok x, Ok y -> Value.equal x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let emitted = function
  | `KV kvs -> Value.List (List.map (fun (k, v) -> Value.Tuple [ k; v ]) kvs)
  | `V vs -> Value.Tuple [ Value.List vs ]

(* free scalars of the staged λs; "zz" is never bound *)
let free_env =
  [
    ("a", vint 3);
    ("b", vint 0);
    ("f", Value.Float 2.5);
    ("s", Value.Str "ab1");
    ("n", Value.Str "12");
    ("p", Value.Struct ("P", [ ("x", vint 4) ]));
    ("t", Value.Tuple [ vint 1; Value.Str "q" ]);
  ]

module G = QCheck.Gen

(* well-typed int expressions over [vars] *)
let int_expr (vars : string list) : Ir.expr G.t =
  G.sized_size (G.int_bound 4)
  @@ G.fix (fun self n ->
         let leaf =
           G.oneof
             [
               G.map (fun i -> Ir.CInt i) (G.int_range (-3) 5);
               G.map (fun v -> Ir.Var v) (G.oneofl vars);
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           G.frequency
             [
               (2, leaf);
               ( 3,
                 G.map3
                   (fun op a b -> Ir.Binop (op, a, b))
                   (G.oneofl Ir.[ Add; Sub; Mul; Div; Mod; Min; Max ])
                   sub sub );
               (1, G.map (fun a -> Ir.Unop (Ir.Neg, a)) sub);
               ( 1,
                 G.map3
                   (fun (op, x) a b -> Ir.If (Ir.Binop (op, x, a), a, b))
                   (G.pair (G.oneofl Ir.[ Lt; Le; Eq; Ne ]) sub)
                   sub sub );
               ( 1,
                 G.map2
                   (fun a b -> Ir.Call ("Math.max", [ a; b ]))
                   sub sub );
             ])

let bool_expr (vars : string list) : Ir.expr G.t =
  let cmp =
    G.map3
      (fun op a b -> Ir.Binop (op, a, b))
      (G.oneofl Ir.[ Lt; Le; Gt; Ge; Eq; Ne ])
      (int_expr vars) (int_expr vars)
  in
  G.frequency
    [
      (3, cmp);
      (1, G.map2 (fun a b -> Ir.Binop (Ir.And, a, b)) cmp cmp);
      (1, G.map2 (fun a b -> Ir.Binop (Ir.Or, a, b)) cmp cmp);
      (1, G.map (fun a -> Ir.Unop (Ir.Not, a)) cmp);
    ]

(* arbitrary, mostly ill-typed expressions: every constructor, every
   modeled library method (and an unknown one) at any arity *)
let any_expr (vars : string list) : Ir.expr G.t =
  let names = "Nope.nope" :: List.map fst Casper_common.Library.known in
  G.sized_size (G.int_bound 4)
  @@ G.fix (fun self n ->
         let leaf =
           G.oneof
             [
               G.map (fun i -> Ir.CInt i) (G.int_range (-2) 3);
               G.map (fun f -> Ir.CFloat f) (G.oneofl [ 0.0; 1.5; -2.0 ]);
               G.map (fun b -> Ir.CBool b) G.bool;
               G.map (fun s -> Ir.CStr s) (G.oneofl [ ""; "a"; "7"; "1994-01-02"; "x-y" ]);
               G.map
                 (fun v -> Ir.Var v)
                 (G.oneofl (vars @ [ "a"; "f"; "s"; "n"; "p"; "t"; "zz" ]));
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           G.frequency
             [
               (2, leaf);
               ( 3,
                 G.map3
                   (fun op a b -> Ir.Binop (op, a, b))
                   (G.oneofl
                      Ir.[ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Min; Max ])
                   sub sub );
               ( 1,
                 G.map2
                   (fun op a -> Ir.Unop (op, a))
                   (G.oneofl Ir.[ Neg; Not ])
                   sub );
               ( 2,
                 G.map2
                   (fun f args -> Ir.Call (f, args))
                   (G.oneofl names)
                   (G.list_size (G.int_bound 3) sub) );
               (1, G.map (fun es -> Ir.MkTuple es) (G.list_size (G.int_bound 3) sub));
               (1, G.map2 (fun a i -> Ir.TupleGet (a, i)) sub (G.int_bound 2));
               (1, G.map2 (fun a f -> Ir.Field (a, f)) sub (G.oneofl [ "x"; "y" ]));
               (1, G.map3 (fun c t e -> Ir.If (c, t, e)) sub sub sub);
             ])

(* a λm with its record: well-typed (int records of the right arity,
   bool guards, int emits) or arbitrary *)
let lam_m_gen : (Ir.lam_m * Value.t) G.t =
  let open G in
  let* params = oneofl [ [ "x" ]; [ "x"; "y" ]; [ "x"; "x" ] ] in
  let* typed = bool in
  let vars = params @ [ "a"; "b" ] in
  let e = if typed then int_expr vars else any_expr vars in
  let guard = if typed then bool_expr vars else any_expr vars in
  let emit =
    map2
      (fun guard payload -> { Ir.guard; payload })
      (opt guard)
      (if typed then map2 (fun k v -> Ir.KV (k, v)) e e
       else
         oneof [ map2 (fun k v -> Ir.KV (k, v)) e e; map (fun v -> Ir.Val v) e ])
  in
  let* emits = list_size (int_bound 3) emit in
  let int = map vint (int_range (-4) 6) in
  let+ record =
    if typed then
      match params with
      | [ _ ] -> int
      | ps -> map (fun l -> Value.Tuple l) (list_repeat (List.length ps) int)
    else Test_common.value_gen
  in
  ({ Ir.m_params = params; emits }, record)

let lam_r_gen : (Ir.lam_r * Value.t * Value.t) G.t =
  let open G in
  let* l, r = oneofl [ ("v1", "v2"); ("v", "v") ] in
  let* typed = bool in
  let vars = [ l; r; "a"; "b" ] in
  let* body = if typed then int_expr vars else any_expr vars in
  let arg = if typed then map vint (int_range (-4) 6) else Test_common.value_gen in
  let+ a, b = pair arg arg in
  ({ Ir.r_left = l; r_right = r; r_body = body }, a, b)

let prop_staged_lam_m =
  QCheck.Test.make ~name:"staged λm = eval_expr over bind_params" ~count:500
    (QCheck.make
       ~print:(fun (lm, r) -> Fmt.str "%a on %a" Ir.pp_lam_m lm Value.pp r)
       lam_m_gen)
    (fun (lm, record) ->
      let reference () = emitted (ref_lam_m free_env lm record) in
      same_outcome
        (fun () -> emitted (Eval.apply_lam_m free_env lm record))
        reference
      && same_outcome
           (fun () ->
             (* the engine's push kernel, its pushes collected *)
             let pushed = ref [] in
             Eval.push_lam_m free_env lm record (fun v ->
                 pushed := v :: !pushed);
             Value.List (List.rev !pushed))
           (fun () ->
             match ref_lam_m free_env lm record with
             | `KV kvs ->
                 Value.List (List.map (fun (k, v) -> Value.Tuple [ k; v ]) kvs)
             | `V vs -> Value.List vs))

let prop_staged_lam_r =
  QCheck.Test.make ~name:"staged λr = eval_expr over its two bindings"
    ~count:500
    (QCheck.make
       ~print:(fun (lr, a, b) ->
         Fmt.str "%a on %a, %a" Ir.pp_lam_r lr Value.pp a Value.pp b)
       lam_r_gen)
    (fun (lr, a, b) ->
      same_outcome
        (fun () -> Eval.apply_lam_r free_env lr a b)
        (fun () -> ref_lam_r free_env lr a b))

(* the operators staged code resolves to a fast path, and others *)
let staged_ops = Ir.[ Add; Sub; Mul; Lt; Le; Gt; Ge; Div; Eq; Min ]

(* both operands fail: the right one is evaluated first *)
let test_staged_binop_order () =
  List.iter
    (fun op ->
      let e =
        Ir.Binop (op, Ir.Binop (Ir.Div, Ir.CInt 1, Ir.CInt 0), Ir.Var "zz")
      in
      let expected = Eval.Eval_error "unbound IR variable zz" in
      let name = Fmt.str "%a" Ir.pp_expr e in
      Alcotest.check_raises ("eval_expr " ^ name) expected (fun () ->
          ignore (Eval.eval_expr [] e));
      Alcotest.check_raises ("staged " ^ name) expected (fun () ->
          ignore (Eval.stage [] [] e [||])))
    staged_ops

(* every operand pair of a fast path's edge, and pairs that miss it:
   staged code gives [eval_expr]'s value bit for bit (the sign of a
   zero, a NaN), or its exception and message *)
let test_staged_binop_table () =
  let f x = Value.Float x and nan = Float.nan in
  let pairs =
    [
      (vint 3, vint 5);
      (vint 5, vint 3);
      (vint 4, vint 4);
      (vint max_int, vint 1);
      (f 1.5, f 2.5);
      (f 2.5, f 2.5);
      (f 2.5, f (-1.0));
      (vint 2, f 2.0);
      (f 2.0, vint 2);
      (vint 1, f 0.5);
      (f nan, f nan);
      (f nan, f 1.0);
      (f 1.0, f nan);
      (f (-0.0), f 0.0);
      (f 0.0, f (-0.0));
      (f (-0.0), f (-0.0));
      (Value.Str "ab", Value.Str "c");
      (Value.Str "a", vint 1);
      (Value.Bool true, Value.Bool false);
      (Value.Bool false, vint 0);
      (vint 0, Value.Bool true);
    ]
  in
  let same_bits a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> Value.equal a b
  in
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun op ->
      List.iter
        (fun (x, y) ->
          let e = Ir.Binop (op, Ir.Var "x", Ir.Var "y") in
          let staged = Eval.stage [] [ "x"; "y" ] e in
          let name =
            Fmt.str "%a on %a, %a" Ir.pp_expr e Value.pp x Value.pp y
          in
          match
            ( outcome (fun () -> staged [| x; y |]),
              outcome (fun () -> Eval.eval_expr [ ("x", x); ("y", y) ] e) )
          with
          | Ok a, Ok b ->
              if not (same_bits a b) then
                Alcotest.failf "%s: staged %a, eval_expr %a" name Value.pp a
                  Value.pp b
          | Error a, Error b -> Alcotest.(check string) name b a
          | Ok _, Error m | Error m, Ok _ ->
              Alcotest.failf "%s: only one side raised %s" name m)
        pairs)
    staged_ops

(* key and value both fail: the value is evaluated first *)
let test_staged_emit_order () =
  let lm =
    id_map [ "x" ] (Ir.Binop (Ir.Div, Ir.Var "x", Ir.CInt 0)) (Ir.Var "zz")
  in
  let expected = Eval.Eval_error "unbound IR variable zz" in
  Alcotest.check_raises "apply_lam_m" expected (fun () ->
      ignore (Eval.apply_lam_m [] lm (vint 1)));
  Alcotest.check_raises "push_lam_m" expected (fun () ->
      Eval.push_lam_m [] lm (vint 1) ignore);
  Alcotest.check_raises "reference" expected (fun () ->
      ignore (ref_lam_m [] lm (vint 1)))

(* ---------------- type inference ---------------- *)

let tenv = { Infer.vars = [ ("n", Ir.TInt); ("s", Ir.TString) ]; structs = [ ("P", [ ("x", Ir.TFloat) ]) ] }

let test_infer_exprs () =
  check "int + int" true (Infer.infer tenv (Ir.Binop (Ir.Add, Ir.Var "n", Ir.CInt 1)) = Ir.TInt);
  check "int + float promotes" true
    (Infer.infer tenv (Ir.Binop (Ir.Add, Ir.Var "n", Ir.CFloat 1.0)) = Ir.TFloat);
  check "cmp is bool" true
    (Infer.infer tenv (Ir.Binop (Ir.Lt, Ir.Var "n", Ir.CInt 3)) = Ir.TBool);
  check "string concat" true
    (Infer.infer tenv (Ir.Binop (Ir.Add, Ir.Var "s", Ir.Var "s")) = Ir.TString);
  check "tuple" true
    (Infer.infer tenv (Ir.MkTuple [ Ir.CInt 1; Ir.CBool true ])
    = Ir.TTuple [ Ir.TInt; Ir.TBool ])

let test_infer_node () =
  let record_ty _ = Ir.TRecord "P" in
  let lm =
    { Ir.m_params = [ "p" ];
      emits = [ { Ir.guard = None; payload = Ir.KV (Ir.CStr "k", Ir.Field (Ir.Var "p", "x")) } ] }
  in
  match Infer.infer_node tenv record_ty (Ir.Map (Ir.Data "d", lm)) with
  | `KVs (Ir.TString, Ir.TFloat) -> ()
  | _ -> Alcotest.fail "wrong inferred kv types"

let test_infer_illtyped () =
  match Infer.infer tenv (Ir.Binop (Ir.Add, Ir.CBool true, Ir.CInt 1)) with
  | exception Infer.Ill_typed _ -> ()
  | _ -> Alcotest.fail "expected ill-typed"

(* every modeled method returns a value of its declared kind, on every
   sample argument list of its declared arity that it accepts, and
   accepts at least one *)
let test_library_kinds () =
  let module Library = Casper_common.Library in
  let samples =
    Value.[ Int 3; Float 2.5; Bool true; Str "1994-01-02"; Str "7"; Str "-" ]
  in
  let rec arg_lists n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (List.cons v) (arg_lists (n - 1)))
        samples
  in
  let same_ctor (a : Value.t) (b : Value.t) =
    match (a, b) with Int _, Int _ | Float _, Float _ -> true | _ -> false
  in
  List.iter
    (fun (name, arity) ->
      let kind = Option.get (Library.kind name) in
      let has_kind args (v : Value.t) =
        match (kind, v) with
        | (Library.K_int | K_date), Int _
        | K_float, Float _
        | K_bool, Bool _
        | K_string, Str _ ->
            true
        | K_strings, List vs ->
            List.for_all (function Value.Str _ -> true | _ -> false) vs
        | K_numeric_arg, (Int _ | Float _) ->
            (* all-int or all-float arguments keep their type *)
            not (List.for_all (same_ctor (List.hd args)) args)
            || same_ctor v (List.hd args)
        | _ -> false
      in
      let accepted =
        List.filter_map
          (fun args ->
            match Library.apply name args with
            | v -> Some (args, v)
            | exception (Library.Unknown_method _ | Value.Type_error _) -> None)
          (arg_lists arity)
      in
      check (name ^ " accepts a sample") true (accepted <> []);
      List.iter
        (fun (args, v) ->
          check
            (Fmt.str "%s %a returns its kind" name
               Fmt.(Dump.list Value.pp)
               args)
            true (has_kind args v))
        accepted)
    Library.known

(* ---------------- printing & metrics ---------------- *)

let test_pp_and_metrics () =
  let s =
    {
      Ir.pipeline =
        Ir.Map
          ( Ir.Reduce (Ir.Map (Ir.Data "mat", id_map [ "i"; "j"; "v" ] (Ir.Var "i") (Ir.Var "v")), add_r),
            id_map [ "k"; "v" ] (Ir.Var "k") (Ir.Binop (Ir.Div, Ir.Var "v", Ir.Var "cols")) );
      bindings = [ ("m", Ir.Whole) ];
    }
  in
  let str = Ir.summary_to_string s in
  check "non-trivial rendering" true (String.length str > 20);
  check_int "3 ops" 3 (Ir.op_count s.Ir.pipeline);
  check_int "depth" 3 (Ir.node_depth s.Ir.pipeline);
  check_int "expr size of v/cols" 3
    (Ir.expr_size (Ir.Binop (Ir.Div, Ir.Var "v", Ir.Var "cols")))

let suite =
  [
    ( "ir.eval.expr",
      [
        Alcotest.test_case "arithmetic" `Quick test_eval_arith;
        Alcotest.test_case "min/max/strings" `Quick test_eval_minmax_strings;
        Alcotest.test_case "division by zero" `Quick test_eval_div_zero;
        Alcotest.test_case "tuple & field" `Quick test_eval_tuple_field;
        Alcotest.test_case "lazy if/and" `Quick test_eval_if_shortcircuit;
      ] );
    ( "ir.eval.nodes",
      [
        Alcotest.test_case "map keyed" `Quick test_map_keyed;
        Alcotest.test_case "guarded map" `Quick test_map_guard;
        Alcotest.test_case "reduce by key" `Quick test_reduce_by_key;
        Alcotest.test_case "keys grouped by value" `Quick
          test_reduce_keys_by_value;
        Alcotest.test_case "global reduce" `Quick test_global_reduce;
        Alcotest.test_case "reduce empty" `Quick test_reduce_empty;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "mixed emits rejected" `Quick
          test_mixed_emits_rejected;
      ] );
    ( "ir.eval.summary",
      [
        Alcotest.test_case "scalar default" `Quick
          test_apply_summary_scalar_default;
        Alcotest.test_case "array rebuild" `Quick test_apply_summary_array;
        Alcotest.test_case "array out of bounds" `Quick
          test_apply_summary_array_oob;
        Alcotest.test_case "tuple projection" `Quick test_apply_summary_proj;
      ] );
    Testenv.qsuite "ir.eval.props" [ prop_reduce_perm_invariant ];
    ( "ir.eval.staged",
      [
        Alcotest.test_case "binop operands right to left" `Quick
          test_staged_binop_order;
        Alcotest.test_case "emit value before key" `Quick
          test_staged_emit_order;
        Alcotest.test_case "binop operand table" `Quick
          test_staged_binop_table;
      ] );
    Testenv.qsuite "ir.eval.staged.props" [ prop_staged_lam_m; prop_staged_lam_r ];
    ( "ir.infer",
      [
        Alcotest.test_case "expressions" `Quick test_infer_exprs;
        Alcotest.test_case "pipeline" `Quick test_infer_node;
        Alcotest.test_case "ill-typed" `Quick test_infer_illtyped;
        Alcotest.test_case "library method kinds" `Quick test_library_kinds;
      ] );
    ( "ir.pp",
      [ Alcotest.test_case "printing & metrics" `Quick test_pp_and_metrics ] );
  ]
