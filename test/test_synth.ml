(** Tests for the synthesizer: expression lifting, grammar generation,
    incremental classes, and end-to-end CEGIS on representative
    fragments. *)

module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module G = Casper_synth.Grammar
module Lift = Casper_synth.Lift
module Cegis = Casper_synth.Cegis
open Minijava

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fragment src =
  let prog = Parser.parse_program src in
  ( prog,
    List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t") )

let fast_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

(* ---------------- lifting ---------------- *)

let test_lift_harvest () =
  let prog, frag =
    fragment
      {|double f(double[] x, int n, double t) {
          double s = 0;
          for (int i = 0; i < n; i++) { if (x[i] > t) s += x[i] * 2.0; }
          return s;
        }|}
  in
  let h = Lift.harvest prog frag in
  check "product lifted" true
    (List.mem (Ir.Binop (Ir.Mul, Ir.Var "x", Ir.CFloat 2.0)) h);
  check "guard lifted" true
    (List.mem (Ir.Binop (Ir.Gt, Ir.Var "x", Ir.Var "t")) h);
  (* output accumulator expressions must NOT be liftable *)
  check "no s references" true
    (List.for_all (fun e -> not (List.mem "s" (Ir.expr_vars e))) h)

(* lifted expressions agree with the interpreter on matched states *)
let test_lift_semantics () =
  let prog, frag =
    fragment
      "int f(int[] a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i] * a[i]; return s; }"
  in
  let lifted = Lift.lift frag prog (Ast.Binop (Ast.Mul, Ast.Index (Ast.Var "a", Ast.Var "i"), Ast.Index (Ast.Var "a", Ast.Var "i"))) in
  match lifted with
  | Some e ->
      (* λm params: (i, a); binding a = 7 must give 49 *)
      let v =
        Casper_ir.Eval.eval_expr
          [ ("i", Casper_common.Value.Int 0); ("a", Casper_common.Value.Int 7) ]
          e
      in
      check "square" true (Casper_common.Value.equal v (Casper_common.Value.Int 49))
  | None -> Alcotest.fail "expected lift to succeed"

let test_record_params () =
  let _, frag =
    fragment
      {|int[] f(int[][] m, int r, int c) {
          int[] o = new int[r];
          for (int i = 0; i < r; i++) {
            int s = 0;
            for (int j = 0; j < c; j++) s += m[i][j];
            o[i] = s;
          }
          return o;
        }|}
  in
  check "matrix params (i, j, v)" true
    (List.map fst (Lift.record_params frag) = [ "i"; "j"; "v" ])

(* ---------------- grammar classes ---------------- *)

let test_class_hierarchy () =
  let _, frag =
    fragment
      "int f(List<Integer> d) { int s = 0; for (int x : d) s += x; return s; }"
  in
  let classes = G.classes frag in
  check_int "four classes" 4 (List.length classes);
  check "ops monotone" true
    (let ops = List.map (fun k -> k.G.max_ops) classes in
     List.sort compare ops = ops);
  check "emits monotone" true
    (let e = List.map (fun k -> k.G.max_emits) classes in
     List.sort compare e = e)

let test_join_class () =
  let _, frag =
    fragment
      {|class A { int k; } class B { int k2; }
        int f(List<A> xs, List<B> ys) {
          int c = 0;
          for (A a : xs) { for (B b : ys) { if (a.k == b.k2) c += 1; } }
          return c;
        }|}
  in
  check_int "single join class" 1 (List.length (G.classes frag))

let test_pools_typed () =
  let prog, frag =
    fragment
      "double f(double[] x, int n) { double s = 0; for (int i = 0; i < n; i++) s += x[i]; return s; }"
  in
  let probes = Cegis.make_probes prog frag in
  let pools = G.build prog frag probes in
  check "float pool has the element" true
    (List.mem (Ir.Var "x") pools.G.floats);
  check "int pool has the index" true (List.mem (Ir.Var "i") pools.G.ints);
  (* every pool member type-checks at its pool's type *)
  let tenv = G.tenv_of pools in
  check "floats well typed" true
    (List.for_all
       (fun e ->
         match Casper_ir.Infer.infer tenv e with
         | Ir.TFloat -> true
         | _ -> false
         | exception _ -> false)
       pools.G.floats)

let test_dedupe_keeps_harvested () =
  let probes =
    Casper_ir.Memo.probe_set
      { Casper_ir.Memo.cell_hits = 0; cell_misses = 0 }
      [ [ ("x", Casper_common.Value.Int 1) ] ]
  in
  (* x+0 and x are observationally equal; keep must protect the second *)
  let kept =
    G.dedupe_c
      ~keep:(fun e -> e = Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 0))
      probes
      [ Ir.Var "x"; Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 0) ]
  in
  check_int "both kept" 2 (List.length kept);
  let dropped =
    G.dedupe_c probes [ Ir.Var "x"; Ir.Binop (Ir.Add, Ir.Var "x", Ir.CInt 0) ]
  in
  check_int "without keep, one dropped" 1 (List.length dropped)

(* ---------------- end-to-end synthesis ---------------- *)

let synth src =
  let prog, frag = fragment src in
  (frag, Cegis.find_summary ~config:fast_config prog frag)

let test_synth_sum () =
  let _, r = synth
    "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
  in
  check "found" true (not (List.is_empty r.Cegis.solutions))

let test_synth_conditional_count () =
  let _, r = synth
    "int f(int[] d, int n, int t) { int c = 0; for (int i = 0; i < n; i++) { if (d[i] > t) c += 1; } return c; }"
  in
  check "found" true (not (List.is_empty r.Cegis.solutions));
  (* the cheapest solution must have a guarded emit *)
  let best = List.hd r.Cegis.solutions in
  let has_guard =
    match best.Cegis.summary.Ir.pipeline with
    | Ir.Reduce (Ir.Map (_, { Ir.emits; _ }), _) ->
        List.exists (fun e -> e.Ir.guard <> None) emits
    | _ -> false
  in
  check "guarded emit" true has_guard

let test_synth_two_outputs () =
  let _, r = synth
    {|double f(double[] d, int n) {
        double s = 0;
        double q = 0;
        for (int i = 0; i < n; i++) { s += d[i]; q += d[i] * d[i]; }
        return q - s;
      }|}
  in
  check "variance-style pair found" true (not (List.is_empty r.Cegis.solutions))

let test_synth_minmax_tuple () =
  let _, r = synth
    {|int f(int[] d, int n) {
        int lo = 1000000;
        int hi = -1000000;
        for (int i = 0; i < n; i++) {
          if (d[i] < lo) lo = d[i];
          if (d[i] > hi) hi = d[i];
        }
        return hi - lo;
      }|}
  in
  check "delta-style found" true (not (List.is_empty r.Cegis.solutions))

let test_synth_no_solution_argmax () =
  let _, r = synth
    {|int f(int[] d, int n) {
        int best = -1000000;
        int bi = 0;
        for (int i = 0; i < n; i++) { if (d[i] > best) { best = d[i]; bi = i; } }
        return bi;
      }|}
  in
  check "argmax has no summary in the IR space" true
    (List.is_empty r.Cegis.solutions)

let test_synth_all_solutions_verify () =
  let prog, frag = fragment
    "boolean f(List<String> ws, String k) { boolean found = false; for (String w : ws) { if (w.equals(k)) found = true; } return found; }"
  in
  let r = Cegis.find_summary ~config:fast_config prog frag in
  check "found some" true (not (List.is_empty r.Cegis.solutions));
  (* re-check on fresh states of the full domain, drawn from a seed no
     phase of the search draws from *)
  let fresh =
    Casper_verify.Statesgen.(
      gen_batch ~seed:7919 ~count:64 (full_domain frag) prog frag)
  in
  List.iter
    (fun (s : Cegis.solution) ->
      match Casper_verify.Verifier.check_batch prog frag s.Cegis.summary fresh with
      | Casper_verify.Verifier.Valid -> ()
      | _ -> Alcotest.fail "returned solution does not verify")
    r.Cegis.solutions

let test_synth_costs_sorted () =
  let prog, frag = fragment
    "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
  in
  let r = Cegis.find_summary ~config:fast_config prog frag in
  let costs = List.map (fun s -> s.Cegis.static_cost) r.Cegis.solutions in
  check "cost-sorted" true (List.sort compare costs = costs)

let test_blocking_makes_progress () =
  (* with explore_all, the same summary never appears twice *)
  let prog, frag = fragment
    "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
  in
  let r =
    Cegis.find_summary
      ~config:{ fast_config with Cegis.explore_all = true; max_solutions = 50 }
      prog frag
  in
  let keys = List.map (fun s -> Ir.summary_to_string s.Cegis.summary) r.Cegis.solutions in
  check "no duplicates" true
    (List.length keys = List.length (List.sort_uniq compare keys))

let test_unsupported_short_circuits () =
  let prog, frag = fragment
    {|double[] f(double[] x, int n) {
        double[] o = new double[n];
        for (int i = 0; i < n - 1; i++) o[i] = x[i] + x[i + 1];
        return o;
      }|}
  in
  let obs = Casper_obs.Obs.create () in
  let r = Cegis.find_summary ~obs ~config:fast_config prog frag in
  check_int "no candidates tried" 0 r.Cegis.stats.Cegis.candidates_tried;
  check "no solutions" true (List.is_empty r.Cegis.solutions);
  (* with no search, neither the grammar nor its probes are built *)
  let rec has_grammar (v : Casper_obs.Obs.view) =
    String.equal v.v_name "grammar" || List.exists has_grammar v.v_children
  in
  check "no grammar built" false
    (List.exists has_grammar (Casper_obs.Obs.tree obs))

(* ---------------- family verdicts ---------------- *)

module Vc = Casper_vcgen.Vc
module Value = Casper_common.Value

(* [s += 2x] over a list: a candidate that emits [x] once per record
   fails at prefix 1 before any λr runs; one that emits it twice under
   one key needs λr to add the two *)
let doubled_sum () =
  fragment
    "int f(List<Integer> d) { int s = 0; for (int x : d) s += 2 * x; return s; }"

let lr body = { Ir.r_left = "v1"; r_right = "v2"; r_body = body }
let v1 = Ir.Var "v1"
and v2 = Ir.Var "v2"

let reducers =
  lr v1 :: lr v2
  :: List.map
       (fun op -> lr (Ir.Binop (op, v1, v2)))
       [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Lt ]

(* reduce(map(d)) with a keyed or a plain-value emit list *)
let keyed emits reducer =
  {
    Ir.pipeline =
      Ir.Reduce
        (Ir.Map (Ir.Data "d", { Ir.m_params = [ "x" ]; emits }), reducer);
    bindings = [ ("s", Ir.AtKey (Value.Str "s")) ];
  }

let plain emits reducer =
  { (keyed emits reducer) with Ir.bindings = [ ("s", Ir.Proj None) ] }

let emit_gen ~kv : Ir.emit QCheck.Gen.t =
  let open QCheck.Gen in
  let x = Ir.Var "x" in
  let* guard =
    oneofl
      [
        None;
        Some (Ir.Binop (Ir.Gt, x, Ir.CInt 0));
        Some (Ir.Binop (Ir.Lt, x, Ir.CInt 1));
      ]
  in
  let* v =
    oneofl
      [
        x; Ir.Binop (Ir.Mul, Ir.CInt 2, x); Ir.Binop (Ir.Add, x, x);
        Ir.Binop (Ir.Mul, x, x); Ir.CInt 0; Ir.CInt 1;
        Ir.Binop (Ir.Div, Ir.CInt 6, x);
      ]
  in
  let+ k = oneofl [ Ir.CStr "s"; Ir.CStr "t"; x ] in
  { Ir.guard; payload = (if kv then Ir.KV (k, v) else Ir.Val v) }

(* a candidate body (λr left open), a Φ state, and two λrs *)
let family_case_gen =
  let open QCheck.Gen in
  let* body =
    oneof
      [
        map keyed (list_size (int_range 1 3) (emit_gen ~kv:true));
        map plain (list_size (int_range 1 3) (emit_gen ~kv:false));
        return (fun reducer ->
            {
              Ir.pipeline = Ir.Reduce (Ir.Data "d", reducer);
              bindings = [ ("s", Ir.Proj None) ];
            });
      ]
  in
  let* d = list_size (int_bound 4) (int_range (-3) 3) in
  let* lr1 = oneofl reducers in
  let+ lr2 = oneofl reducers in
  (body, d, lr1, lr2)

let family_case_arb =
  QCheck.make
    ~print:(fun (body, d, lr1, lr2) ->
      Fmt.str "%s / %s on d = [%s]"
        (Ir.summary_to_string (body lr1))
        (Ir.summary_to_string (body lr2))
        (String.concat "; " (List.map string_of_int d)))
    family_case_gen

(* A failure reached before any λr ran is the failure of every summary
   that differs only in λr: same result, to the prefix and message. Both
   branches of the precondition must be reached, or the property says
   nothing. *)
let test_family_verdict_exact () =
  let prog, frag = doubled_sum () in
  let blind = ref 0 and ran = ref 0 in
  let prop (body, d, lr1, lr2) =
    let params = [ ("d", Value.List (List.map (fun i -> Value.Int i) d)) ] in
    let ps = Vc.prepare_state prog frag (Vc.entry_of_params prog frag params) in
    match Vc.check_prepared frag (body lr1) ps with
    | (Vc.Fails _ | Vc.Ir_error _) as r1, false ->
        incr blind;
        fst (Vc.check_prepared frag (body lr2) ps) = r1
    | _, lr_ran ->
        if lr_ran then incr ran;
        true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |])
    (QCheck.Test.make ~name:"family verdict" ~count:400 family_case_arb prop);
  check "some failures are reducer-blind" true (!blind > 0);
  check "some checks run λr" true (!ran > 0)

(* the pin: a record that emits two values under one key makes λr run
   at prefix 1, so the failure of one λr says nothing about another *)
let test_family_needs_reducer_blind_failure () =
  let prog, frag = doubled_sum () in
  let phi = [ [ ("d", Value.List [ Value.Int 3; Value.Int 5 ]) ] ] in
  let st = Cegis.make_state ~phi prog frag ~budget:100 in
  let once =
    [ { Ir.guard = None; payload = Ir.KV (Ir.CStr "s", Ir.Var "x") } ]
  in
  let twice = once @ once in
  let sum = lr (Ir.Binop (Ir.Add, v1, v2)) in
  let holds c key family =
    Cegis.holds_on_phi st frag
      { Casper_synth.Enumerate.summary = c; key; family; projs = [] }
  in
  let family_dead family =
    Casper_synth.Enumerate.scope_dead (Cegis.dead st) ~family ~projs:[]
  in
  check "x once, keep-first fails" false (holds (keyed once (lr v1)) 1 10);
  check "its family is refuted" true (family_dead 10);
  check "x once, sum fails too" false (holds (keyed once sum) 2 10);
  check "x twice, keep-first fails" false (holds (keyed twice (lr v1)) 3 20);
  check "a failure after λr ran leaves the family live" false
    (family_dead 20);
  check "x twice, sum holds" true (holds (keyed twice sum) 4 20);
  check "the family stays live" false (family_dead 20)

(* ---------------- keyed projections ---------------- *)

(* two scalar outputs, so the keyed shape emits one pair per output *)
let two_sums () =
  fragment
    {|int f(List<Integer> d) {
        int s = 0;
        int t = 0;
        for (int x : d) { s += 2 * x; t += x; }
        return s + t;
      }|}

let keyed2 (e_s : Ir.emit) (e_t : Ir.emit) reducer =
  {
    Ir.pipeline =
      Ir.Reduce
        (Ir.Map (Ir.Data "d", { Ir.m_params = [ "x" ]; emits = [ e_s; e_t ] }),
          reducer);
    bindings =
      [ ("s", Ir.AtKey (Value.Str "s")); ("t", Ir.AtKey (Value.Str "t")) ];
  }

(* an emit of the keyed shape: its key is the output's name *)
let output_emit_gen out : Ir.emit QCheck.Gen.t =
  QCheck.Gen.map
    (fun (e : Ir.emit) ->
      match e.payload with
      | Ir.KV (_, v) -> { e with payload = Ir.KV (Ir.CStr out, v) }
      | Ir.Val _ -> e)
    (emit_gen ~kv:true)

(* the emits of both outputs, another emit for each, a Φ state, two
   λrs *)
let projection_case_gen =
  let open QCheck.Gen in
  let* e_s = output_emit_gen "s" and* e_t = output_emit_gen "t" in
  let* e_s' = output_emit_gen "s" and* e_t' = output_emit_gen "t" in
  let* d = list_size (int_bound 4) (int_range (-3) 3) in
  let* lr1 = oneofl reducers in
  let+ lr2 = oneofl reducers in
  ((e_s, e_t, e_s', e_t'), d, lr1, lr2)

(* A failure on output [o] reached before any λr ran refutes every
   keyed summary that keeps [o]'s emit, whatever the other output's
   emit and the λr are: output [o] depends on its emit and λr alone.
   The refutation may come earlier or differ in kind, but it is never a
   pass. *)
let test_projection_refutation_exact () =
  let prog, frag = two_sums () in
  let blind = ref 0 in
  let prop ((e_s, e_t, e_s', e_t'), d, lr1, lr2) =
    let params = [ ("d", Value.List (List.map (fun i -> Value.Int i) d)) ] in
    let ps = Vc.prepare_state prog frag (Vc.entry_of_params prog frag params) in
    let refuted c =
      match fst (Vc.check_prepared frag c ps) with
      | Vc.Fails _ | Vc.Ir_error _ -> true
      | Vc.Holds | Vc.State_skipped _ -> false
    in
    match Vc.check_prepared frag (keyed2 e_s e_t lr1) ps with
    | Vc.Fails { var = "s"; _ }, false ->
        incr blind;
        refuted (keyed2 e_s e_t' lr2)
    | Vc.Fails { var = "t"; _ }, false ->
        incr blind;
        refuted (keyed2 e_s' e_t lr2)
    | _ -> true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |])
    (QCheck.Test.make ~name:"projection verdict" ~count:400
       (QCheck.make projection_case_gen)
       prop);
  check "some failures name an output before λr ran" true (!blind > 0)

(* the pin: a failure on [s] kills the projection of [s]'s emit, and
   only that one *)
let test_projection_marks_the_failing_output () =
  let prog, frag = two_sums () in
  let phi = [ [ ("d", Value.List [ Value.Int 3; Value.Int 5 ]) ] ] in
  let st = Cegis.make_state ~phi prog frag ~budget:100 in
  let emit out v = { Ir.guard = None; payload = Ir.KV (Ir.CStr out, v) } in
  let x = Ir.Var "x" in
  let wrong_s = emit "s" x
  and right_s = emit "s" (Ir.Binop (Ir.Mul, Ir.CInt 2, x)) in
  let t1 = emit "t" x and t2 = emit "t" (Ir.Binop (Ir.Add, x, Ir.CInt 0)) in
  let sum = lr (Ir.Binop (Ir.Add, v1, v2)) in
  let holds c key family projs =
    Cegis.holds_on_phi st frag
      { Casper_synth.Enumerate.summary = c; key; family; projs }
  in
  (* no check below refutes family 0, so only the projection answers *)
  let proj_dead p =
    Casper_synth.Enumerate.scope_dead (Cegis.dead st) ~family:0
      ~projs:[ ("s", p) ]
  in
  check "s emits x: refuted on s" false
    (holds (keyed2 wrong_s t1 sum) 1 10 [ ("s", 100); ("t", 200) ]);
  check "s's projection is refuted" true (proj_dead 100);
  check "t's projection is not" false (proj_dead 200);
  check "same s emit, other t emit and family: refuted" false
    (holds (keyed2 wrong_s t2 (lr v1)) 2 20 [ ("s", 100); ("t", 201) ]);
  check "t's projection stays live" true
    (holds (keyed2 right_s t1 sum) 3 30 [ ("s", 101); ("t", 200) ]);
  check "and stays unrefuted" false (proj_dead 200)

(* ---------------- work left unbuilt ---------------- *)

(* A [Bulk] item stands for the candidates the dead sets refute, in
   enumeration order: expanding each item of an enumeration under dead
   sets, a [Cand] to its key and a [Bulk] to its [cids] (exactly [n] of
   them), gives the keys the same enumeration yields with nothing dead.
   The dead sets here refute every third candidate key, every fifth
   family and every seventh candidate's projections among the first
   4,000 candidates, so both [Bulk] paths (a family's rest, a keyed
   row's product) are taken. *)
let test_bulk_expands_to_candidates () =
  let module E = Casper_synth.Enumerate in
  let word_count =
    let b = Casper_suites.Registry.find_benchmark "WordCount" in
    let prog = Parser.parse_program b.source in
    (prog, List.hd (An.fragments_of_program prog ~suite:b.suite
                      ~benchmark:b.name))
  in
  List.iter
    (fun (prog, frag) ->
      let pools = G.build prog frag (Cegis.make_probes prog frag) in
      let items dead =
        List.to_seq (G.classes frag)
        |> Seq.concat_map (fun k -> E.candidates ~dead prog frag pools k)
      in
      let all =
        items (E.make_dead ())
        |> Seq.filter_map (function E.Cand c -> Some c | E.Bulk _ -> None)
        |> Seq.take 4000 |> List.of_seq
      in
      let dead = E.make_dead () in
      List.iteri
        (fun i (c : E.cand) ->
          if i mod 3 = 0 then Hashtbl.replace dead.E.cands c.E.key ();
          if i mod 5 = 0 then Hashtbl.replace dead.E.scopes c.E.family ();
          if i mod 7 = 0 then
            List.iter
              (fun (_, p) -> Hashtbl.replace dead.E.scopes p ())
              c.E.projs)
        all;
      let bulks = ref 0 in
      let expanded =
        items dead
        |> Seq.concat_map (function
             | E.Cand c ->
                 check "a built candidate is not refuted" false
                   (Hashtbl.mem dead.E.cands c.E.key
                   || E.scope_dead dead ~family:c.E.family ~projs:c.E.projs);
                 Seq.return c.E.key
             | E.Bulk { n; cids } ->
                 incr bulks;
                 let cids = Lazy.force cids in
                 check_int "a Bulk holds n candidate keys" n
                   (List.length cids);
                 List.to_seq cids)
        |> Seq.take (List.length all) |> List.of_seq
      in
      check "some candidates are left unbuilt" true (!bulks > 0);
      Alcotest.(check (list int))
        "expanded keys are the enumeration with nothing dead"
        (List.map (fun (c : E.cand) -> c.E.key) all)
        expanded)
    [ two_sums (); word_count ]

(* Bulk items stand in for most candidates on the largest fragments
   that end without a summary; [candidates_tried] counts them all *)
let test_unbuilt_share () =
  List.iter
    (fun (bench, frag_id) ->
      let b = Casper_suites.Registry.find_benchmark bench in
      let prog = Parser.parse_program b.source in
      let frag =
        List.find
          (fun (f : F.t) -> String.equal f.F.frag_id frag_id)
          (An.fragments_of_program prog ~suite:b.suite ~benchmark:b.name)
      in
      let obs = Casper_obs.Obs.create () in
      let r = Cegis.find_summary ~obs prog frag in
      let tried = r.Cegis.stats.Cegis.candidates_tried in
      let unbuilt = Casper_obs.Obs.total obs "candidates_unbuilt" in
      let tag = bench ^ "/" ^ frag_id in
      check (tag ^ ": no solution") true (List.is_empty r.Cegis.solutions);
      check
        (Fmt.str "%s: %d of %d tried left unbuilt" tag unbuilt tried)
        true
        (4 * unbuilt >= 3 * tried))
    [
      ("NLMeans", "adaptiveCut#0");
      ("TemporalMedian", "median3#0");
      ("3DHistogram", "histogramPeak#0");
      ("TemporalMedian", "argmaxIntensity#0");
      ("TemporalMedian", "secondMax#0");
    ]

let base_suite =
  [
    ( "synth.lift",
      [
        Alcotest.test_case "harvest" `Quick test_lift_harvest;
        Alcotest.test_case "lift semantics" `Quick test_lift_semantics;
        Alcotest.test_case "record params" `Quick test_record_params;
      ] );
    ( "synth.grammar",
      [
        Alcotest.test_case "class hierarchy" `Quick test_class_hierarchy;
        Alcotest.test_case "join class" `Quick test_join_class;
        Alcotest.test_case "typed pools" `Quick test_pools_typed;
        Alcotest.test_case "dedupe keeps harvested" `Quick
          test_dedupe_keeps_harvested;
      ] );
    ( "synth.cegis",
      [
        Alcotest.test_case "sum" `Quick test_synth_sum;
        Alcotest.test_case "conditional count" `Quick
          test_synth_conditional_count;
        Alcotest.test_case "two outputs" `Quick test_synth_two_outputs;
        Alcotest.test_case "min/max tuple" `Slow test_synth_minmax_tuple;
        Alcotest.test_case "argmax unreachable" `Slow
          test_synth_no_solution_argmax;
        Alcotest.test_case "all solutions verify" `Quick
          test_synth_all_solutions_verify;
        Alcotest.test_case "costs sorted" `Quick test_synth_costs_sorted;
        Alcotest.test_case "blocking: no duplicates" `Quick
          test_blocking_makes_progress;
        Alcotest.test_case "unsupported short-circuits" `Quick
          test_unsupported_short_circuits;
      ] );
    ( "synth.family",
      [
        Alcotest.test_case "reducer-blind failures are family-wide" `Quick
          test_family_verdict_exact;
        Alcotest.test_case "a failure after λr ran stays the candidate's"
          `Quick test_family_needs_reducer_blind_failure;
      ] );
    ( "synth.dead",
      [
        Alcotest.test_case "reducer-blind failures are output-wide" `Quick
          test_projection_refutation_exact;
        Alcotest.test_case "a failure kills only its output's projection"
          `Quick test_projection_marks_the_failing_output;
        Alcotest.test_case "no-solution fragments stay mostly unbuilt" `Slow
          test_unbuilt_share;
        Alcotest.test_case "Bulk items expand to the enumeration" `Quick
          test_bulk_expands_to_candidates;
      ] );
  ]

(* ---------------- §6.1 features: inlining & while loops ---------------- *)

let test_inline_user_method () =
  let _, r = synth
    {|double gauss(double x) { return Math.exp(0.0 - x * x); }
      double f(double[] d, int n) {
        double s = 0;
        for (int i = 0; i < n; i++) s += gauss(d[i]);
        return s;
      }|}
  in
  check "inlined helper synthesizes" true (not (List.is_empty r.Cegis.solutions))

let test_while_counted_loop () =
  let frag, r = synth
    {|int f(int[] d, int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
          s += d[i];
          i = i + 1;
        }
        return s;
      }|}
  in
  (match frag.F.schema with
  | F.SArrays { idx = "i"; _ } -> ()
  | _ -> Alcotest.fail "expected counted-while SArrays schema");
  check "counter is not an output" true
    (not (List.exists (fun (v, _, _) -> v = "i") frag.F.outputs));
  check "while loop synthesizes" true (not (List.is_empty r.Cegis.solutions))

(* ---------------- search-outcome golden ---------------- *)

(* What the search decides for every Table-2 fragment at the default
   configuration: the counts of Figure 5's loops and the printed
   solution list, cost-sorted. Search optimizations must leave all of it
   byte-identical; [elapsed_s] is the only statistic left out.

   The file ends with two fragments searched with [explore_all], whose
   lines start with "explore_all ". Climbing past verified classes
   re-enumerates candidates already blocked (Ω ∪ Δ), some of them inside
   [Bulk] items of refuted families; their counts pin that a [Bulk]
   item counts its blocked candidates as skipped, which no default
   search reaches. *)
let explore_all_config =
  {
    Cegis.default_config with
    Cegis.max_candidates = 60_000;
    explore_all = true;
    max_solutions = 50;
  }

let search_outcomes () : string =
  let b = Buffer.create 65536 in
  let outcomes ?config ~prefix (bench : Casper_suites.Suite.benchmark) =
    let r =
      Casper_core.Casper.translate_source ?config ~suite:bench.suite
        ~benchmark:bench.name bench.source
    in
    List.iter
      (fun (t : Casper_core.Casper.translation) ->
        let o = t.outcome and st = t.outcome.Cegis.stats in
        Printf.bprintf b
          "%s%s/%s tried=%d iters=%d tp=%d classes=%d timed_out=%b\n" prefix
          bench.name t.frag.F.frag_id st.Cegis.candidates_tried
          st.Cegis.cegis_iterations st.Cegis.tp_failures
          st.Cegis.classes_explored st.Cegis.timed_out;
        List.iter
          (fun (s : Cegis.solution) ->
            Printf.bprintf b "  class=%d ca=%b cost=%.17g %s\n" s.klass
              s.comm_assoc s.static_cost
              (String.concat " "
                 (String.split_on_char '\n' (Ir.summary_to_string s.summary))))
          o.Cegis.solutions)
      r.translations
  in
  List.iter (outcomes ~prefix:"") Casper_suites.Registry.all_benchmarks;
  List.iter
    (fun name ->
      outcomes ~config:explore_all_config ~prefix:"explore_all "
        (Casper_suites.Registry.find_benchmark name))
    [ "AllPositive"; "Trails" ];
  Buffer.contents b

(* On a mismatch the actual outcomes are written next to the test
   binary (under _build/default/test/) so the two files can be diffed;
   copy it over the golden only for a change that means to alter what
   the search finds. *)
let test_search_outcome_golden () =
  let golden =
    In_channel.with_open_bin "corpus/search_outcomes.txt" In_channel.input_all
  in
  let actual = search_outcomes () in
  if not (String.equal golden actual) then begin
    Out_channel.with_open_bin "search_outcomes.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let gl = String.split_on_char '\n' golden
    and al = String.split_on_char '\n' actual in
    let rec first i = function
      | g :: gs, a :: as_ ->
          if String.equal g a then first (i + 1) (gs, as_)
          else Alcotest.failf "line %d: expected %S, got %S (see %s)" i g a
                 (Filename.concat (Sys.getcwd ()) "search_outcomes.actual")
      | _ -> Alcotest.failf "line counts differ: %d vs %d" (List.length gl)
               (List.length al)
    in
    first 1 (gl, al)
  end

let extra_suite =
  [
    ( "synth.java-features",
      [
        Alcotest.test_case "user method inlining (§6.1)" `Quick
          test_inline_user_method;
        Alcotest.test_case "counted while loop (§6.1)" `Quick
          test_while_counted_loop;
      ] );
    ( "synth.golden",
      [
        Alcotest.test_case "search outcomes of every Table-2 fragment" `Slow
          test_search_outcome_golden;
      ] );
  ]

let suite = base_suite @ extra_suite
