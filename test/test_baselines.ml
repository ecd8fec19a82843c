(** Tests for the baselines: MOLD rule dispatch and plan behaviour, the
    manual reference plans, the SparkSQL substitute, and the TPC-H data
    generator. *)

module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Mold = Baselines.Mold
module Manual = Baselines.Manual
module Value = Casper_common.Value
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fragment_of bench frag_id =
  let b = Casper_suites.Registry.find_benchmark bench in
  let prog = Minijava.Parser.parse_program b.Casper_suites.Suite.source in
  List.find
    (fun (f : F.t) -> f.F.frag_id = frag_id)
    (An.fragments_of_program prog ~suite:"t" ~benchmark:"t")

(* ---------------- MOLD ---------------- *)

let test_mold_stringmatch_rule () =
  let frag = fragment_of "StringMatch" "stringmatch#0" in
  match Mold.translate_fragment frag with
  | Mold.Translated tr ->
      check_int "one job per keyword" 2 (List.length tr.Mold.plans)
  | _ -> Alcotest.fail "expected flag-scan rule to fire"

let test_mold_stringmatch_result () =
  let frag = fragment_of "StringMatch" "stringmatch#0" in
  match Mold.translate_fragment frag with
  | Mold.Translated tr ->
      let entry =
        [
          ( "words",
            Value.List [ Value.Str "hello"; Value.Str "x"; Value.Str "y" ] );
          ("key1", Value.Str "hello");
          ("key2", Value.Str "world");
        ]
      in
      let results =
        List.map
          (fun (out, plan_of) ->
            let run =
              Engine.run_plan ~config:Testenv.config ~cluster:Cluster.spark
                ~datasets:[ ("words", Value.as_list (List.assoc "words" entry)) ]
                (plan_of entry)
            in
            (out, run.Engine.output))
          tr.Mold.plans
      in
      (* key1 present, key2 absent *)
      let value_of out =
        match List.assoc out results with
        | [ Value.Tuple [ _; Value.Bool b ] ] -> b
        | _ -> Alcotest.fail "unexpected MOLD output shape"
      in
      check "key1 found" true (value_of "key1_found");
      check "key2 not found" false (value_of "key2_found")
  | _ -> Alcotest.fail "rule should fire"

let test_mold_wordcount_rule () =
  let frag = fragment_of "WordCount" "wordcount#0" in
  match Mold.translate_fragment frag with
  | Mold.Translated tr -> check "no zip for wordcount" true (not tr.Mold.zip_preprocess)
  | _ -> Alcotest.fail "expected counter-map rule"

let test_mold_linreg_zips () =
  let frag = fragment_of "LinearRegression" "linreg#0" in
  match Mold.translate_fragment frag with
  | Mold.Translated tr ->
      check "zipWithIndex preprocessing" true tr.Mold.zip_preprocess
  | _ -> Alcotest.fail "expected numeric-acc rule"

let test_mold_oom_on_histogram () =
  let frag = fragment_of "3DHistogram" "histogram#0" in
  check "histogram OOMs" true (Mold.translate_fragment frag = Mold.Out_of_memory)

let test_mold_no_rule_for_unsupported () =
  let frag = fragment_of "PCA" "covarianceMatrix#0" in
  check "no rule" true (Mold.translate_fragment frag = Mold.No_rule)

(* ---------------- manual plans ---------------- *)

let test_manual_wordcount () =
  let words = List.map (fun s -> Value.Str s) [ "a"; "b"; "a" ] in
  let run =
    Engine.run_plan ~config:Testenv.config
      ~cluster:Cluster.spark ~datasets:[ ("words", words) ]
      Manual.word_count
  in
  check "two keys" true (List.length run.Engine.output = 2)

let test_manual_linreg () =
  let pt x y =
    Value.Struct ("Point", [ ("x", Value.Float x); ("y", Value.Float y) ])
  in
  let run =
    Engine.run_plan ~config:Testenv.config ~cluster:Cluster.spark
      ~datasets:[ ("points", [ pt 1.0 2.0; pt 3.0 4.0 ]) ]
      Manual.linear_regression
  in
  match run.Engine.output with
  | [ Value.Tuple [ sx; _; _; _; sxy ] ] ->
      check "sx" true (Value.equal_approx sx (Value.Float 4.0));
      check "sxy" true (Value.equal_approx sxy (Value.Float 14.0))
  | _ -> Alcotest.fail "expected summed tuple"

let test_manual_histogram_bounded_shuffle () =
  let rng = Casper_common.Rng.create 2 in
  let pixels = Value.as_list (Casper_suites.Workload.pixels rng ~n:2000) in
  let run =
    Engine.run_plan ~config:Testenv.config
      ~cluster:Cluster.spark ~datasets:[ ("pixels", pixels) ]
      Manual.histogram_aggregate
  in
  check "at most 768 bins" true (List.length run.Engine.output <= 768);
  check_int "3 emits per pixel" (3 * 2000)
    (List.hd run.Engine.stages).Engine.records_out

(* ---------------- TPC-H generator & SparkSQL substitute ---------------- *)

let test_tpch_gen_shape () =
  let db = Tpch.Gen.generate ~seed:1 ~lineitems:500 () in
  check_int "lineitems" 500 (List.length db.Tpch.Gen.lineitem);
  check "parts nonempty" true (List.length db.Tpch.Gen.part > 0);
  check "lineitems alone equal generate's" true
    (List.equal Value.equal db.Tpch.Gen.lineitem
       (Tpch.Gen.lineitems ~seed:1 ~n:500 ()));
  check "dimensions alone equal generate's" true
    (List.equal
       (fun (n1, r1) (n2, r2) -> String.equal n1 n2 && List.equal Value.equal r1 r2)
       (List.remove_assoc "lineitem" (Tpch.Gen.datasets db))
       (Tpch.Gen.dimensions ~seed:1 ~lineitems:500 ()));
  List.iter
    (fun l ->
      let q = Value.as_int (Value.field "l_quantity" l) in
      check "quantity in 1..50" true (q >= 1 && q <= 50);
      let disc = Value.as_float (Value.field "l_discount" l) in
      check "discount in 0..0.10" true (disc >= 0.0 && disc <= 0.101))
    db.Tpch.Gen.lineitem

let test_sparksql_q6_matches_direct () =
  let db = Tpch.Gen.generate ~seed:9 ~lineitems:800 () in
  let d = Casper_common.Library.parse_date in
  let dt1 = d "1994-01-01" and dt2 = d "1995-01-01" in
  let q =
    Tpch.Sparksql.q6 ~cluster:Cluster.spark (Tpch.Gen.datasets db) ~dt1 ~dt2
  in
  let direct =
    List.fold_left
      (fun acc l ->
        let sd = Value.as_int (Value.field "l_shipdate" l) in
        let disc = Value.as_float (Value.field "l_discount" l) in
        let qty = Value.as_int (Value.field "l_quantity" l) in
        if sd > dt1 && sd < dt2 && disc >= 0.05 && disc <= 0.07 && qty < 24
        then acc +. (Value.as_float (Value.field "l_extendedprice" l) *. disc)
        else acc)
      0.0 db.Tpch.Gen.lineitem
  in
  match q.Tpch.Sparksql.result with
  | [ v ] -> check "q6 matches" true (Value.equal_approx v (Value.Float direct))
  | [] -> check "no qualifying rows" true (direct = 0.0)
  | _ -> Alcotest.fail "unexpected result"

let test_sparksql_q1_groups () =
  let db = Tpch.Gen.generate ~seed:4 ~lineitems:600 () in
  let q =
    Tpch.Sparksql.q1 ~cluster:Cluster.spark (Tpch.Gen.datasets db)
      ~cutoff:(Casper_common.Library.parse_date "1998-09-02")
  in
  (* returnflag ∈ {A,N,R} × linestatus ∈ {O,F} gives at most 6 groups *)
  check "at most 6 groups" true (List.length q.Tpch.Sparksql.result <= 6);
  check "at least 1 group" true (List.length q.Tpch.Sparksql.result >= 1)

let test_sparksql_q15_double_scan () =
  let db = Tpch.Gen.generate ~seed:4 ~lineitems:400 () in
  let d = Casper_common.Library.parse_date in
  let q =
    Tpch.Sparksql.q15 ~cluster:Cluster.spark (Tpch.Gen.datasets db)
      ~dt1:(d "1992-01-01") ~dt2:(d "1999-01-01")
  in
  check_int "two lineitem scans (the paper's observation)" 2
    (List.length q.Tpch.Sparksql.runs)

(* ---------------- Fold-IR ---------------- *)

let test_foldir_ariths_complete () =
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let prog = Minijava.Parser.parse_program b.Casper_suites.Suite.source in
      let frag =
        List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t")
      in
      let r = Fold_ir.find_summary prog frag in
      check (b.Casper_suites.Suite.name ^ " in Fold-IR") true
        r.Fold_ir.complete)
    Casper_suites.Ariths.all

let test_foldir_rejects_wrong () =
  let b = Casper_suites.Registry.find_benchmark "Sum" in
  let prog = Minijava.Parser.parse_program b.Casper_suites.Suite.source in
  let frag = List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t") in
  let wrong =
    {
      Fold_ir.dataset = "data";
      output = "total";
      acc = "acc";
      params = [ "i"; "data" ];
      body =
        Casper_ir.Lang.Binop
          (Casper_ir.Lang.Mul, Casper_ir.Lang.Var "acc", Casper_ir.Lang.Var "data");
    }
  in
  check "wrong fold rejected" false (Fold_ir.verify prog frag wrong)

let suite =
  [
    ( "baselines.mold",
      [
        Alcotest.test_case "stringmatch rule" `Quick test_mold_stringmatch_rule;
        Alcotest.test_case "stringmatch result" `Quick
          test_mold_stringmatch_result;
        Alcotest.test_case "wordcount rule" `Quick test_mold_wordcount_rule;
        Alcotest.test_case "linreg zips" `Quick test_mold_linreg_zips;
        Alcotest.test_case "histogram OOM" `Quick test_mold_oom_on_histogram;
        Alcotest.test_case "no rule for PCA" `Quick
          test_mold_no_rule_for_unsupported;
      ] );
    ( "baselines.manual",
      [
        Alcotest.test_case "wordcount" `Quick test_manual_wordcount;
        Alcotest.test_case "linear regression" `Quick test_manual_linreg;
        Alcotest.test_case "histogram aggregate" `Quick
          test_manual_histogram_bounded_shuffle;
      ] );
    ( "baselines.tpch",
      [
        Alcotest.test_case "generator shape" `Quick test_tpch_gen_shape;
        Alcotest.test_case "Q6 vs direct" `Quick test_sparksql_q6_matches_direct;
        Alcotest.test_case "Q1 groups" `Quick test_sparksql_q1_groups;
        Alcotest.test_case "Q15 double scan" `Quick
          test_sparksql_q15_double_scan;
      ] );
    ( "baselines.foldir",
      [
        Alcotest.test_case "Ariths complete (§7.5)" `Slow
          test_foldir_ariths_complete;
        Alcotest.test_case "wrong fold rejected" `Quick test_foldir_rejects_wrong;
      ] );
  ]
