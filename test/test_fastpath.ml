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
  let h = H.create () in
  let a = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 1) in
  let b = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 1) in
  let c = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 2) in
  check_int "equal exprs share an id" (H.expr_id h a) (H.expr_id h b);
  check "distinct exprs get distinct ids" true (H.expr_id h a <> H.expr_id h c);
  let s1 = H.binop h Ir.Add (H.var h "x") (H.cint h 1) in
  let s2 = H.binop h Ir.Add (H.var h "x") (H.cint h 1) in
  check "smart constructors return the canonical representative" true
    (s1 == s2);
  check_int "smart-constructed and raw exprs share an id" (H.expr_id h s1)
    (H.expr_id h a)

let test_emit_and_construction_keys () =
  let h = H.create () in
  let v = Ir.Var "v" in
  let e_val = { Ir.guard = None; payload = Ir.Val v } in
  let e_kv = { Ir.guard = None; payload = Ir.KV (v, v) } in
  let e_guarded = { Ir.guard = Some (Ir.CBool true); payload = Ir.Val v } in
  check "Val and KV payloads never collide" true
    (H.emit_id h e_val <> H.emit_id h e_kv);
  check "guarded and unguarded emits never collide" true
    (H.emit_id h e_val <> H.emit_id h e_guarded);
  check_int "emit ids are stable across rebuilds" (H.emit_id h e_val)
    (H.emit_id h { Ir.guard = None; payload = Ir.Val (Ir.Var "v") });
  check_int "key_of interns by component list" (H.key_of h [ 1; 2; 3 ])
    (H.key_of h [ 1; 2; 3 ]);
  check "different component lists get different keys" true
    (H.key_of h [ 1; 2; 3 ] <> H.key_of h [ 1; 2 ])

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

(* Within one interner the id partition matches structural equality
   and an id never changes. Each search makes its own interner: a second
   one fed the same expressions in the same order hands out the same
   ids, and feeding it leaves the first one's ids as they were. *)
let test_ids_stable_per_interner () =
  let rand = Random.State.make [| 0x5eed |] in
  let exprs = QCheck.Gen.generate ~rand ~n:120 gen_expr in
  let h1 = H.create () in
  let ids1 = List.map (H.expr_id h1) exprs in
  List.iter2
    (fun e id ->
      check_int "ids are stable within an interner" id (H.expr_id h1 e))
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
  let h2 = H.create () in
  let ids2 = List.map (H.expr_id h2) exprs in
  check "another interner hands out the same ids" true (ids1 = ids2);
  check "and leaves the first one's ids alone" true
    (List.map (H.expr_id h1) exprs = ids1)

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
  let pools = G.build prog frag in
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
  let pools = G.build prog frag in
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
   environments gets its own cells, and the tables are the probe set's
   own: once it is dropped its cell arrays and firing vectors are
   collected (a search's probe sets die with the search) *)
let test_cells_keyed_by_probe_set () =
  let h = H.create () in
  let e = H.binop h Ir.Add (H.var h "x") (H.cint h 1) in
  let g = H.binop h Ir.Lt (H.var h "x") (H.cint h 2) in
  let counts = { Memo.cell_hits = 0; cell_misses = 0 } in
  let probes xs =
    Memo.probe_set counts (List.map (fun x -> [ ("x", Value.Int x) ]) xs)
  in
  let ps1 = probes [ 1; 2 ] and ps2 = probes [ 1; 2 ] and ps3 = probes [ 5 ] in
  let a1 = Memo.cells ps1 e in
  check "the same set answers from the cache" true (Memo.cells ps1 e == a1);
  check_int "one miss" 1 counts.Memo.cell_misses;
  check_int "one hit" 1 counts.Memo.cell_hits;
  let a2 = Memo.cells ps2 e in
  check "an equal set of other environments gets its own cells" true
    (a2 != a1 && a2 = a1);
  check_int "one cell per probe" 1 (Array.length (Memo.cells ps3 e));
  check "other probes, other cells: x + 1 prints as 6 on x = 5" true
    (Memo.cells ps3 e = Memo.cells ps3 (H.cint h 6)
    && Memo.cells ps3 e <> Memo.cells ps3 (H.cint h 2));
  check "guard firing vectors are cached the same way" true
    (let f = Memo.fires ps1 g in
     f = [| true; false |] && Memo.fires ps1 g == f);
  let cells_w = Weak.create 1 and fires_w = Weak.create 1 in
  let[@inline never] fill_and_drop () =
    let ps = probes [ 1; 2 ] in
    Weak.set cells_w 0 (Some (Memo.cells ps e));
    Weak.set fires_w 0 (Some (Memo.fires ps g))
  in
  fill_and_drop ();
  Gc.full_major ();
  check "a dropped probe set's cell array was collected" false
    (Weak.check cells_w 0);
  check "and its firing vector" false (Weak.check fires_w 0)

(* ---------------- suite ---------------- *)

let suite =
  [
    ( "fastpath.ids",
      [
        Alcotest.test_case "expression interning" `Quick test_expr_ids;
        Alcotest.test_case "emit ids and construction keys" `Quick
          test_emit_and_construction_keys;
        Alcotest.test_case "ids stable per interner" `Quick
          test_ids_stable_per_interner;
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
        Alcotest.test_case "keyed by probe set, emptied when dropped" `Quick
          test_cells_keyed_by_probe_set;
      ] );
  ]
