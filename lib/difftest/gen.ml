open Minijava.Ast
module Rng = Casper_common.Rng

type generated = { shape : string; prog : program }

(* ------------------------------------------------------------------ *)
(* Small AST helpers                                                   *)

let v x = Var x
let i n = IntLit n
let f x = FloatLit x
let add a b = Binop (Add, a, b)
let mul a b = Binop (Mul, a, b)
let meth0 ret mname params body = { mname; ret; params; body }
let prog0 ?(classes = []) meths = { classes; methods = meths }

(* 1..5: small enough that int folds cannot overflow and float folds
   stay well inside the comparison tolerance *)
let small_const rng = 1 + Rng.int rng 5

let num_lit kind rng =
  match kind with
  | TFloat -> f (float_of_int (small_const rng))
  | _ -> i (small_const rng)

let zero_of = function TFloat -> f 0.0 | _ -> i 0
let one_of = function TFloat -> f 1.0 | _ -> i 1

let cmp_op rng = Rng.pick rng [ Lt; Le; Gt; Ge ]

(* a counted loop the analyzer recognizes: for (int i = 0; i < bound;
   i++) — the parser desugars i++ to exactly this assignment *)
let counted idx bound body =
  For
    ( [ Decl (TInt, idx, Some (i 0)) ],
      Some (Binop (Lt, v idx, bound)),
      [ Assign (LVar idx, add (v idx) (i 1)) ],
      body )

(* ------------------------------------------------------------------ *)
(* Shape templates                                                     *)

(* s = s + <term> over one element variable *)
let add_term rng kind x =
  match Rng.int rng 4 with
  | 0 -> v x
  | 1 -> mul (v x) (num_lit kind rng)
  | 2 -> add (v x) (num_lit kind rng)
  | _ -> num_lit kind rng

(* fold over List<elem>: sum / product / min / max, optionally guarded *)
let scalar_fold rng =
  let kind = if Rng.bool rng then TInt else TFloat in
  let list_ty = TList kind in
  let update, init, tag =
    match Rng.int rng 4 with
    | 0 ->
        (* conditional or unconditional additive fold *)
        let upd = Assign (LVar "s", add (v "s") (add_term rng kind "x")) in
        let upd =
          if Rng.bool rng then
            let guard = Binop (cmp_op rng, v "x", num_lit kind rng) in
            if Rng.bool rng then If (guard, [ upd ], [])
            else
              If
                ( guard,
                  [ upd ],
                  [ Assign (LVar "s", add (v "s") (num_lit kind rng)) ] )
          else upd
        in
        (upd, zero_of kind, "sum")
    | 1 -> (Assign (LVar "s", mul (v "s") (v "x")), one_of kind, "product")
    | 2 ->
        ( If (Binop (Gt, v "x", v "s"), [ Assign (LVar "s", v "x") ], []),
          (match kind with
          | TFloat -> f (-1000000.0)
          | _ -> Unop (Neg, i 1000000)),
          "max" )
    | _ ->
        ( If (Binop (Lt, v "x", v "s"), [ Assign (LVar "s", v "x") ], []),
          (match kind with TFloat -> f 1000000.0 | _ -> i 1000000),
          "min" )
  in
  {
    shape = "scalar-fold-" ^ tag;
    prog =
      prog0
        [
          meth0 kind "f"
            [ (list_ty, "xs") ]
            [
              Decl (kind, "s", Some init);
              ForEach (kind, "x", v "xs", [ update ]);
              Return (Some (v "s"));
            ];
        ];
  }

(* two accumulators updated in one pass: sum and (possibly guarded)
   count *)
let sum_count rng =
  let guard =
    if Rng.bool rng then Some (Binop (cmp_op rng, v "x", i (small_const rng)))
    else None
  in
  let updates =
    [
      Assign (LVar "s", add (v "s") (add_term rng TInt "x"));
      Assign (LVar "n", add (v "n") (i 1));
    ]
  in
  let body =
    match guard with None -> updates | Some g -> [ If (g, updates, []) ]
  in
  {
    shape = "sum-count";
    prog =
      prog0
        [
          meth0 TInt "f"
            [ (TList TInt, "xs") ]
            [
              Decl (TInt, "s", Some (i 0));
              Decl (TInt, "n", Some (i 0));
              ForEach (TInt, "x", v "xs", body);
              Return (Some (add (v "s") (v "n")));
            ];
        ];
  }

let get_or_default m k d = MethodCall (v m, "getOrDefault", [ k; d ])
let put m k vl = ExprStmt (MethodCall (v m, "put", [ k; vl ]))

(* wordcount-style keyed fold over a list of strings *)
let wordcount rng =
  let c = small_const rng in
  {
    shape = "wordcount";
    prog =
      prog0
        [
          meth0
            (TMap (TString, TInt))
            "f"
            [ (TList TString, "ws") ]
            [
              Decl (TMap (TString, TInt), "m", Some (NewObj ("HashMap", [])));
              ForEach
                ( TString,
                  "w",
                  v "ws",
                  [
                    put "m" (v "w")
                      (add (get_or_default "m" (v "w") (i 0)) (i c));
                  ] );
              Return (Some (v "m"));
            ];
        ];
  }

(* keyed fold over record fields, optionally guarded on the value *)
let keyed_field_fold rng =
  let key_ty = if Rng.bool rng then TString else TInt in
  let cls = { cname = "R"; cfields = [ (key_ty, "k"); (TInt, "w") ] } in
  let term =
    match Rng.int rng 3 with
    | 0 -> Field (v "r", "w")
    | 1 -> i (small_const rng)
    | _ -> add (Field (v "r", "w")) (i (small_const rng))
  in
  let upd =
    put "m" (Field (v "r", "k"))
      (add (get_or_default "m" (Field (v "r", "k")) (i 0)) term)
  in
  let body =
    if Rng.bool rng then
      [
        If
          ( Binop (cmp_op rng, Field (v "r", "w"), i (small_const rng)),
            [ upd ],
            [] );
      ]
    else [ upd ]
  in
  {
    shape = "keyed-field-fold";
    prog =
      prog0 ~classes:[ cls ]
        [
          meth0
            (TMap (key_ty, TInt))
            "f"
            [ (TList (TClass "R"), "rs") ]
            [
              Decl (TMap (key_ty, TInt), "m", Some (NewObj ("HashMap", [])));
              ForEach (TClass "R", "r", v "rs", body);
              Return (Some (v "m"));
            ];
        ];
  }

(* string-equality search with one or two boolean outputs *)
let string_search rng =
  let two = Rng.bool rng in
  let hit w k out = If (MethodCall (v w, "equals", [ v k ]), [ Assign (LVar out, BoolLit true) ], []) in
  let body = hit "w" "key1" "found1" :: (if two then [ hit "w" "key2" "found2" ] else []) in
  let decls =
    Decl (TBool, "found1", Some (BoolLit false))
    :: (if two then [ Decl (TBool, "found2", Some (BoolLit false)) ] else [])
  in
  let params =
    (TList TString, "ws") :: (TString, "key1")
    :: (if two then [ (TString, "key2") ] else [])
  in
  let result =
    if two then Binop (Or, v "found1", v "found2") else v "found1"
  in
  {
    shape = "string-search";
    prog =
      prog0
        [
          meth0 TBool "f" params
            (decls @ [ ForEach (TString, "w", v "ws", body); Return (Some result) ]);
        ];
  }

(* counted loop over one or two parallel arrays *)
let array_fold rng =
  let kind = if Rng.bool rng then TInt else TFloat in
  let two = Rng.bool rng in
  let elem a = Index (v a, v "i") in
  let term =
    if two then
      match Rng.int rng 3 with
      | 0 -> mul (elem "a") (elem "b")
      | 1 -> add (elem "a") (elem "b")
      | _ -> elem "b"
    else match Rng.int rng 2 with
      | 0 -> elem "a"
      | _ -> mul (elem "a") (num_lit kind rng)
  in
  let upd = Assign (LVar "s", add (v "s") term) in
  let body =
    if Rng.bool rng then
      [ If (Binop (cmp_op rng, elem "a", num_lit kind rng), [ upd ], []) ]
    else [ upd ]
  in
  let params =
    (TArray kind, "a")
    :: (if two then [ (TArray kind, "b") ] else [])
    @ [ (TInt, "n") ]
  in
  {
    shape = (if two then "array-fold-2" else "array-fold");
    prog =
      prog0
        [
          meth0 kind "f" params
            [
              Decl (kind, "s", Some (zero_of kind));
              counted "i" (v "n") body;
              Return (Some (v "s"));
            ];
        ];
  }

(* doubly-nested counted loop over a 2-D array *)
let matrix_fold rng =
  let kind = if Rng.bool rng then TInt else TFloat in
  let cell = Index (Index (v "mat", v "i"), v "j") in
  let upd =
    match Rng.int rng 3 with
    | 0 -> Assign (LVar "s", add (v "s") cell)
    | 1 -> Assign (LVar "s", add (v "s") (mul cell (num_lit kind rng)))
    | _ -> If (Binop (Gt, cell, v "s"), [ Assign (LVar "s", cell) ], [])
  in
  let init =
    match upd with
    | If _ -> ( match kind with TFloat -> f (-1000000.0) | _ -> Unop (Neg, i 1000000))
    | _ -> zero_of kind
  in
  {
    shape = "matrix-fold";
    prog =
      prog0
        [
          meth0 kind "f"
            [ (TArray (TArray kind), "mat"); (TInt, "r"); (TInt, "c") ]
            [
              Decl (kind, "s", Some init);
              counted "i" (v "r") [ counted "j" (v "c") [ upd ] ];
              Return (Some (v "s"));
            ];
        ];
  }

(* nested iteration over two datasets, guarded on a key equality *)
let join_fold rng =
  let lcls = { cname = "L"; cfields = [ (TInt, "k"); (TInt, "u") ] } in
  let rcls = { cname = "T"; cfields = [ (TInt, "k"); (TInt, "w") ] } in
  let fx fld = Field (v "x", fld) in
  let fy fld = Field (v "y", fld) in
  let term =
    match Rng.int rng 3 with
    | 0 -> i 1
    | 1 -> fx "u"
    | _ -> add (fx "u") (fy "w")
  in
  let guard =
    let keys = Binop (Eq, fx "k", fy "k") in
    if Rng.bool rng then
      Binop (And, keys, Binop (cmp_op rng, fy "w", i (small_const rng)))
    else keys
  in
  {
    shape = "join-fold";
    prog =
      prog0 ~classes:[ lcls; rcls ]
        [
          meth0 TInt "f"
            [ (TList (TClass "L"), "xs"); (TList (TClass "T"), "ys") ]
            [
              Decl (TInt, "total", Some (i 0));
              ForEach
                ( TClass "L",
                  "x",
                  v "xs",
                  [
                    ForEach
                      ( TClass "T",
                        "y",
                        v "ys",
                        [
                          If
                            ( guard,
                              [ Assign (LVar "total", add (v "total") term) ],
                              [] );
                        ] );
                  ] );
              Return (Some (v "total"));
            ];
        ];
  }

(* ------------------------------------------------------------------ *)
(* The weighted pool                                                   *)

let pool : (int * (Rng.t -> generated)) list =
  [
    (4, scalar_fold);
    (2, sum_count);
    (2, wordcount);
    (3, keyed_field_fold);
    (2, string_search);
    (3, array_fold);
    (1, matrix_fold);
    (1, join_fold);
  ]

let program (rng : Rng.t) : generated =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 pool in
  let roll = Rng.int rng total in
  let rec pick acc = function
    | [] -> assert false
    | (w, g) :: rest -> if roll < acc + w then g else pick (acc + w) rest
  in
  (pick 0 pool) rng
