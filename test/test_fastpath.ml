(** Tests for the synthesis fast path: hash-consed ids, construction
    keys, fingerprint dedup and the cell cache. Each mechanism is
    checked against a plain reference of its own (id fingerprints
    against printed strings); [synth.golden] and [verify.incremental]
    check the search they make up. *)

module Ir = Casper_ir.Lang
module H = Casper_ir.Hashcons
module Memo = Casper_ir.Memo
module Eval = Casper_ir.Eval
module An = Casper_analysis.Analyze
module G = Casper_synth.Grammar
module Cegis = Casper_synth.Cegis
module Enumerate = Casper_synth.Enumerate
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- hash-consed ids ---------------- *)

let test_expr_ids () =
  let a = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 1) in
  let b = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 1) in
  let c = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 2) in
  check_int "equal exprs share an id" (H.expr_id a) (H.expr_id b);
  check "distinct exprs get distinct ids" true (H.expr_id a <> H.expr_id c);
  let s1 = H.binop Ir.Add (H.var "x") (H.cint 1) in
  let s2 = H.binop Ir.Add (H.var "x") (H.cint 1) in
  check "smart constructors return the canonical representative" true
    (s1 == s2);
  check_int "smart-constructed and raw exprs share an id" (H.expr_id s1)
    (H.expr_id a)

let test_emit_and_construction_keys () =
  let v = Ir.Var "v" in
  let e_val = { Ir.guard = None; payload = Ir.Val v } in
  let e_kv = { Ir.guard = None; payload = Ir.KV (v, v) } in
  let e_guarded = { Ir.guard = Some (Ir.CBool true); payload = Ir.Val v } in
  check "Val and KV payloads never collide" true
    (H.emit_id e_val <> H.emit_id e_kv);
  check "guarded and unguarded emits never collide" true
    (H.emit_id e_val <> H.emit_id e_guarded);
  check_int "emit ids are stable across rebuilds" (H.emit_id e_val)
    (H.emit_id { Ir.guard = None; payload = Ir.Val (Ir.Var "v") });
  check_int "key_of interns by component list" (H.key_of [ 1; 2; 3 ])
    (H.key_of [ 1; 2; 3 ]);
  check "different component lists get different keys" true
    (H.key_of [ 1; 2; 3 ] <> H.key_of [ 1; 2 ])

(* ---------------- id stability ---------------- *)

(* random well-typed integer expressions over x, y: arithmetic,
   conditionals on integer comparisons and on their conjunctions,
   disjunctions and negations *)
let gen_expr : Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return (Ir.Var "x");
            return (Ir.Var "y");
            map (fun i -> Ir.CInt i) (int_range (-5) 5);
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        let op = oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Min; Ir.Max ] in
        let cmp = oneofl [ Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ] in
        let test = map3 (fun cmp a b -> Ir.Binop (cmp, a, b)) cmp sub sub in
        let cond =
          oneof
            [
              test;
              map3
                (fun op p q -> Ir.Binop (op, p, q))
                (oneofl [ Ir.And; Ir.Or ])
                test test;
              map (fun p -> Ir.Unop (Ir.Not, p)) test;
            ]
        in
        oneof
          [
            leaf;
            map3 (fun op a b -> Ir.Binop (op, a, b)) op sub sub;
            map3 (fun c t e -> Ir.If (c, t, e)) cond sub sub;
          ])

(* Ids must survive a save/clear/re-intern cycle without collisions:
   [H.clear] empties the tables but never rewinds the counters, so a
   stale id saved before the clear can never alias a fresh one, and
   within each generation the id partition matches structural
   equality. *)
let test_ids_stable_across_clear () =
  let rand = Random.State.make [| 0x5eed |] in
  let exprs = QCheck.Gen.generate ~rand ~n:120 gen_expr in
  H.clear ();
  let ids1 = List.map H.expr_id exprs in
  List.iter2
    (fun e id -> check_int "ids are stable within a generation" id (H.expr_id e))
    exprs ids1;
  let check_partition ids =
    List.iter2
      (fun e1 id1 ->
        List.iter2
          (fun e2 id2 ->
            check "ids partition exactly like structural equality" true
              ((e1 = e2) = (id1 = id2)))
          exprs ids)
      exprs ids
  in
  check_partition ids1;
  let max_before = List.fold_left max (-1) ids1 in
  H.clear ();
  let ids2 = List.map H.expr_id exprs in
  check "post-clear ids never collide with saved ids" true
    (List.for_all (fun id -> id > max_before) ids2);
  check_partition ids2

(* ---------------- observational dedup ---------------- *)

(* a fragment whose probes give the emit fingerprints something to
   observe *)
let sum_fragment () =
  let prog =
    Minijava.Parser.parse_program
      "int f(int[] a, int n) { int s = 0; for (int i = 0; i < n; i++) s \
       += a[i]; return s; }"
  in
  (prog, List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t"))

let test_dedupe_cap_during_filter () =
  let prog, frag = sum_fragment () in
  let pools = G.build prog frag (Cegis.make_probes prog frag) in
  (* constants observe as themselves, so distinctness is the constant's
     value; each appears twice and only the first survives *)
  let emit i = { Ir.guard = None; payload = Ir.Val (Ir.CInt i) } in
  let input = List.concat_map (fun i -> [ emit i; emit i ]) [ 0; 1; 2; 3; 4 ] in
  let capped = Enumerate.dedupe_emits pools ~limit:3 input in
  let uncapped = Enumerate.dedupe_emits pools input in
  check_int "cap keeps exactly limit survivors" 3 (List.length capped);
  check "capping during filtering selects the first distinct emits" true
    (capped = [ emit 0; emit 1; emit 2 ]);
  check "cap is a prefix of the uncapped dedup" true
    (capped = [ List.nth uncapped 0; List.nth uncapped 1; List.nth uncapped 2 ])

(* An emit as printed on each probe: [None] where its guard does not
   fire (a non-boolean or failing guard does not fire), else the printed
   key, if any, and value, ["#err"] for a failing evaluation. *)
let printed_behaviour (pools : G.pools) ({ Ir.guard; payload } : Ir.emit) =
  let cell env e =
    match Eval.eval_expr env e with
    | v -> Value.to_string v
    | exception _ -> "#err"
  in
  Array.to_list
    (Array.map
       (fun env ->
         let fires =
           match guard with
           | None -> true
           | Some g -> (
               match Eval.eval_expr env g with
               | Value.Bool b -> b
               | _ -> false
               | exception _ -> false)
         in
         if not fires then None
         else
           match payload with
           | Ir.KV (k, v) -> Some (Some (cell env k), cell env v)
           | Ir.Val v -> Some (None, cell env v))
       pools.G.cprobes.Memo.ps_envs)

(* the first [limit] emits of distinct printed behaviour, in order *)
let printed_dedupe pools ~limit emits =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let b = printed_behaviour pools e in
      if Hashtbl.length seen >= limit || Hashtbl.mem seen b then false
      else (
        Hashtbl.add seen b ();
        true))
    emits

(* the interned id-array fingerprints must keep exactly the emits a
   dedup by printed values keeps, in the same order, with and without a
   cap: guarded and unguarded, keyed and plain, values that print alike
   ([Int 1] and [Float 1.0]), failing values and a non-boolean guard *)
let test_dedupe_mode_equivalence () =
  let prog, frag = sum_fragment () in
  let pools = G.build prog frag (Cegis.make_probes prog frag) in
  let vals = G.cap 12 (G.exprs_of_ty pools Ir.TInt) in
  let x = List.hd vals in
  let vals =
    vals
    @ [ Ir.CInt 1; Ir.CFloat 1.0; Ir.Binop (Ir.Div, x, Ir.CInt 0);
        Ir.Binop (Ir.Div, Ir.CInt 1, Ir.Binop (Ir.Sub, x, x)) ]
  in
  let guards = Some (Ir.CInt 3) :: G.guards pools ~max_len:6 in
  let emits =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun v ->
            { Ir.guard = g; payload = Ir.Val v }
            :: List.map
                 (fun k -> { Ir.guard = g; payload = Ir.KV (k, v) })
                 (G.cap 4 vals))
          vals)
      guards
  in
  check "the emits include observational duplicates" true
    (List.length (printed_dedupe pools ~limit:max_int emits)
    < List.length emits);
  List.iter
    (fun limit ->
      check (Fmt.str "same emits in the same order (limit %d)" limit) true
        (Enumerate.dedupe_emits pools ~limit emits
        = printed_dedupe pools ~limit emits))
    [ 7; 512; max_int ]

(* ---------------- per-expression cell cache ---------------- *)

(* cells are cached per (probe set, expression): a second read on the
   same set is the cached array itself, another set over other
   environments gets its own cells, and [Memo.clear] drops them all *)
let test_cells_keyed_by_probe_set () =
  Memo.clear ();
  let e = H.binop Ir.Add (H.var "x") (H.cint 1) in
  let probes xs = Memo.probe_set (List.map (fun x -> [ ("x", Value.Int x) ]) xs) in
  let ps1 = probes [ 1; 2 ] and ps2 = probes [ 1; 2 ] and ps3 = probes [ 5 ] in
  let c = Memo.counters () in
  let misses () = c.Memo.cell_misses and hits () = c.Memo.cell_hits in
  let m0 = misses () and h0 = hits () in
  let a1 = Memo.cells ps1 e in
  check "the same set answers from the cache" true (Memo.cells ps1 e == a1);
  check_int "one miss, one hit" 1 (misses () - m0);
  check_int "one hit" 1 (hits () - h0);
  let a2 = Memo.cells ps2 e in
  check "an equal set of other environments gets its own cells" true
    (a2 != a1 && a2 = a1);
  check_int "one cell per probe" 1 (Array.length (Memo.cells ps3 e));
  check "other probes, other cells" true (Memo.cells ps3 e <> [| a1.(0) |]);
  check "guard firing vectors are cached the same way" true
    (let g = H.binop Ir.Lt (H.var "x") (H.cint 2) in
     let f = Memo.fires ps1 g in
     f = [| true; false |] && Memo.fires ps1 g == f);
  let m1 = misses () in
  Memo.clear ();
  let a1' = Memo.cells ps1 e in
  check_int "clear empties the cache" 1 (misses () - m1);
  check "cells recomputed after clear are fresh arrays" true (a1' != a1)

(* ---------------- suite ---------------- *)

let suite =
  [
    ( "fastpath.ids",
      [
        Alcotest.test_case "expression interning" `Quick test_expr_ids;
        Alcotest.test_case "emit ids and construction keys" `Quick
          test_emit_and_construction_keys;
        Alcotest.test_case "ids stable across clear" `Quick
          test_ids_stable_across_clear;
      ] );
    ( "fastpath.dedup",
      [
        Alcotest.test_case "cap applies during filtering" `Quick
          test_dedupe_cap_during_filter;
        Alcotest.test_case "fingerprint modes agree" `Quick
          test_dedupe_mode_equivalence;
      ] );
    ( "fastpath.cells",
      [
        Alcotest.test_case "keyed by probe set, emptied by clear" `Quick
          test_cells_keyed_by_probe_set;
      ] );
  ]
