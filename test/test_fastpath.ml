(** Tests for the synthesis fast path: hash-consed ids, construction
    keys, memoized evaluation, and — the load-bearing property — on/off
    equivalence of [Cegis.find_summary]: the fast path must change how
    fast the search runs, never what it searches or returns. *)

module Ir = Casper_ir.Lang
module H = Casper_ir.Hashcons
module Memo = Casper_ir.Memo
module Fastpath = Casper_ir.Fastpath
module Eval = Casper_ir.Eval
module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module G = Casper_synth.Grammar
module Cegis = Casper_synth.Cegis
module Enumerate = Casper_synth.Enumerate
module Value = Casper_common.Value
module Suite = Casper_suites.Suite

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

let test_summary_ids () =
  let mk v =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Data "d",
            { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Var v } );
      bindings = [ ("s", Ir.Proj None) ];
    }
  in
  check_int "equal summaries share an id" (H.summary_id (mk "v1"))
    (H.summary_id (mk "v1"));
  check "distinct summaries get distinct ids" true
    (H.summary_id (mk "v1") <> H.summary_id (mk "v2"))

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

(* ---------------- memoized eval == plain eval ---------------- *)

(* random well-typed integer expressions over x, y — arithmetic the
   evaluator cannot fault on (no division, no floats), conditionals on
   integer comparisons *)
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
        oneof
          [
            leaf;
            map3 (fun op a b -> Ir.Binop (op, a, b)) op sub sub;
            map3
              (fun (cmp, c) t e -> Ir.If (Ir.Binop (cmp, c, t), t, e))
              (pair cmp sub) sub sub;
          ])

let expr_arb =
  QCheck.make ~print:(Fmt.str "%a" Ir.pp_expr) gen_expr

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

let memo_eval_matches_plain =
  QCheck.Test.make ~name:"memoized eval equals plain eval" ~count:500
    (QCheck.triple expr_arb QCheck.small_int QCheck.small_int)
    (fun (e, x, y) ->
      let env = [ ("x", Value.Int x); ("y", Value.Int y) ] in
      Fastpath.with_enabled true (fun () ->
          let cv = Memo.wrap env in
          let plain = Eval.eval_expr env e in
          Value.equal (Memo.meval cv e) plain
          (* a second evaluation exercises the memo-hit path *)
          && Value.equal (Memo.meval cv e) plain))

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

(* both fingerprint encodings (interned id arrays / concatenated text)
   must induce the same dedup partition *)
let test_dedupe_mode_equivalence () =
  let prog, frag = sum_fragment () in
  let pools = G.build prog frag (Cegis.make_probes prog frag) in
  let emits =
    List.map (fun i -> { Ir.guard = None; payload = Ir.Val (Ir.CInt (i mod 4)) })
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let fast = Fastpath.with_enabled true (fun () -> Enumerate.dedupe_emits pools emits) in
  let slow = Fastpath.with_enabled false (fun () -> Enumerate.dedupe_emits pools emits) in
  check "dedup keeps the same emits in the same order in both modes" true
    (fast = slow)

(* ---------------- per-expression cell cache ---------------- *)

(* cells are cached per (probe set, expression): a second read on the
   same set is the cached array itself, another set over other
   environments gets its own cells, and [Memo.clear] drops them all *)
let test_cells_keyed_by_probe_set () =
  Fastpath.with_enabled true @@ fun () ->
  Memo.clear ();
  let e = H.binop Ir.Add (H.var "x") (H.cint 1) in
  let probes xs = Memo.probe_set (List.map (fun x -> [ ("x", Value.Int x) ]) xs) in
  let ps1 = probes [ 1; 2 ] and ps2 = probes [ 1; 2 ] and ps3 = probes [ 5 ] in
  let c = Fastpath.counters () in
  let misses () = c.Fastpath.cell_misses and hits () = c.Fastpath.cell_hits in
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

(* PCA/colMeans iterates a matrix: the memoized map binds each record's
   environment once per state, so most evaluations on its later
   prefixes are memo hits (before records were shared across prefixes,
   misses outnumbered hits four to one) *)
let test_matrix_search_hits_memo () =
  let b = Casper_suites.Registry.find_benchmark "PCA" in
  let prog = Minijava.Parser.parse_program b.source in
  let frag =
    List.find
      (fun (f : F.t) -> String.equal f.F.frag_id "colMeans#0")
      (An.fragments_of_program prog ~suite:b.suite ~benchmark:b.name)
  in
  let obs = Casper_obs.Obs.create () in
  ignore (Fastpath.with_enabled true (fun () -> Cegis.find_summary ~obs prog frag));
  let hits = Casper_obs.Obs.total obs "memo_eval_hits"
  and misses = Casper_obs.Obs.total obs "memo_eval_misses" in
  check (Fmt.str "%d memo hits > %d misses" hits misses) true (hits > misses)

(* ---------------- on/off equivalence of the search ---------------- *)

let equiv_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

let solutions_equal (a : Cegis.solution list) (b : Cegis.solution list) : bool
    =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Cegis.solution) (y : Cegis.solution) ->
         x.Cegis.summary = y.Cegis.summary
         && x.klass = y.klass
         && x.comm_assoc = y.comm_assoc
         && Float.equal x.static_cost y.static_cost)
       a b

(* the searched candidate order and the returned solutions and stats
   (modulo elapsed time) must be bit-identical with the fast path on and
   off, for every supported fragment of the given benchmarks. The off
   path builds and checks every candidate one by one, so on == off also
   pins the counts of the candidates the fast path leaves unbuilt. *)
let equivalence ?(config = equiv_config) (benches : Suite.benchmark list) ()
    =
  List.iter
    (fun (b : Suite.benchmark) ->
      let prog = Minijava.Parser.parse_program b.source in
      let frags =
        An.fragments_of_program prog ~suite:b.suite ~benchmark:b.name
      in
      List.iter
        (fun (f : F.t) ->
          if f.F.unsupported = None then begin
            let slow =
              Fastpath.with_enabled false (fun () ->
                  Cegis.find_summary ~config prog f)
            in
            let fast =
              Fastpath.with_enabled true (fun () ->
                  Cegis.find_summary ~config prog f)
            in
            let tag what = b.Suite.name ^ ": " ^ what in
            check_int
              (tag "candidates tried")
              slow.Cegis.stats.Cegis.candidates_tried
              fast.Cegis.stats.Cegis.candidates_tried;
            check_int
              (tag "cegis iterations")
              slow.Cegis.stats.Cegis.cegis_iterations
              fast.Cegis.stats.Cegis.cegis_iterations;
            check_int (tag "tp failures") slow.Cegis.stats.Cegis.tp_failures
              fast.Cegis.stats.Cegis.tp_failures;
            check_int
              (tag "classes explored")
              slow.Cegis.stats.Cegis.classes_explored
              fast.Cegis.stats.Cegis.classes_explored;
            check (tag "timed out") slow.Cegis.stats.Cegis.timed_out
              fast.Cegis.stats.Cegis.timed_out;
            check (tag "solutions") true
              (solutions_equal slow.Cegis.solutions fast.Cegis.solutions)
          end)
        frags)
    benches

let equivalence_on_suite (suite_name : string) =
  equivalence (List.assoc suite_name Casper_suites.Registry.suites)

(* explore_all keeps searching past verified summaries, so refuted
   families and re-enumerated candidates include blocked ones (Ω ∪ Δ);
   on these fragments some [Bulk] items do, and they must count as the
   blocked candidates they hold are skipped one by one *)
let explore_all_equivalence =
  equivalence
    ~config:{ equiv_config with Cegis.explore_all = true; max_solutions = 50 }
    (List.map Casper_suites.Registry.find_benchmark
       [ "AllPositive"; "Trails" ])

(* ---------------- suite ---------------- *)

let qsuite name tests =
  (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [
    ( "fastpath.ids",
      [
        Alcotest.test_case "expression interning" `Quick test_expr_ids;
        Alcotest.test_case "summary interning" `Quick test_summary_ids;
        Alcotest.test_case "emit ids and construction keys" `Quick
          test_emit_and_construction_keys;
        Alcotest.test_case "ids stable across clear" `Quick
          test_ids_stable_across_clear;
      ] );
    qsuite "fastpath.eval.props" [ memo_eval_matches_plain ];
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
        Alcotest.test_case "matrix search reuses element envs" `Quick
          test_matrix_search_hits_memo;
      ] );
    ( "fastpath.equivalence",
      [
        Alcotest.test_case "Phoenix: fast path on == off" `Slow
          (equivalence_on_suite "Phoenix");
        Alcotest.test_case "Ariths: fast path on == off" `Slow
          (equivalence_on_suite "Ariths");
        Alcotest.test_case "Stats: fast path on == off" `Slow
          (equivalence_on_suite "Stats");
        Alcotest.test_case "Fiji: fast path on == off" `Slow
          (equivalence_on_suite "Fiji");
        Alcotest.test_case "TPC-H: fast path on == off" `Slow
          (equivalence_on_suite "TPC-H");
        Alcotest.test_case "Biglambda: fast path on == off" `Slow
          (equivalence_on_suite "Biglambda");
        Alcotest.test_case "Iterative: fast path on == off" `Slow
          (equivalence_on_suite "Iterative");
        Alcotest.test_case "explore_all: fast path on == off" `Slow
          explore_all_equivalence;
      ] );
  ]
