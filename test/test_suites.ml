(** End-to-end suite tests: the Table 1 census (82/101), per-suite
    translated counts, failure taxonomy totals, and translated-output
    correctness on live workloads for a representative subset. *)

module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis
module Runner = Casper_codegen.Runner
module Vc = Casper_vcgen.Vc
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

(* share translations across tests (synthesis is the expensive part) *)
let reports : (string, Casper.report) Hashtbl.t = Hashtbl.create 64

let report (b : Casper_suites.Suite.benchmark) =
  match Hashtbl.find_opt reports b.name with
  | Some r -> r
  | None ->
      let r =
        Casper.translate_source ~config ~suite:b.suite ~benchmark:b.name
          b.source
      in
      Hashtbl.replace reports b.name r;
      r

let suite_counts suite_name =
  let benches = List.assoc suite_name Casper_suites.Registry.suites in
  List.fold_left
    (fun (ok, total) b ->
      let r = report b in
      List.fold_left
        (fun (ok, total) t ->
          ((if Casper.translated t then ok + 1 else ok), total + 1))
        (ok, total) r.Casper.translations)
    (0, 0) benches

(* one test per Table 1 row *)
let row_test suite_name expected_ok expected_total () =
  let ok, total = suite_counts suite_name in
  check_int (suite_name ^ " total") expected_total total;
  check_int (suite_name ^ " translated") expected_ok ok

let test_failure_taxonomy () =
  let loops = ref 0 and broadcast = ref 0 and unmodeled = ref 0 in
  let synth_fail = ref 0 in
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      List.iter
        (fun (t : Casper.translation) ->
          match (t.Casper.frag.F.unsupported, t.Casper.survivors) with
          | Some F.Transformer_needs_loop, _ -> incr loops
          | Some F.Broadcast_mapper, _ -> incr broadcast
          | Some (F.Unmodeled_method _), _ -> incr unmodeled
          | Some _, _ -> ()
          | None, [] -> incr synth_fail
          | None, _ -> ())
        (report b).Casper.translations)
    Casper_suites.Registry.all_benchmarks;
  check_int "unmodeled ImageJ methods (paper: 3)" 3 !unmodeled;
  check_int "synthesis failures / timeouts (paper: 10)" 10 !synth_fail;
  check_int "IR-inexpressible loop/broadcast fragments" 6
    (!loops + !broadcast)

(* translated fragments compute the right answers on real workloads *)
let output_test bench_name () =
  let b = Casper_suites.Registry.find_benchmark bench_name in
  let r = report b in
  let env = b.workload.Casper_suites.Suite.gen (Casper_common.Rng.create 11) ~n:500 in
  let prog = r.Casper.program in
  let checked = ref 0 in
  List.iter
    (fun (t : Casper.translation) ->
      match t.Casper.survivors with
      | best :: _ ->
          (try
             let entry = Vc.entry_of_params prog t.Casper.frag env in
             let seq, _ =
               Runner.run_sequential ~scale:1.0 prog t.Casper.frag entry
             in
             let run =
               Runner.run_summary ~config:Testenv.config
                 ~cluster:Mapreduce.Cluster.spark ~scale:1.0
                 prog t.Casper.frag entry best.Cegis.summary
             in
             incr checked;
             check
               (bench_name ^ "/" ^ t.Casper.frag.F.frag_id)
               true
               (Runner.outputs_agree t.Casper.frag seq run.Runner.outputs)
           with Minijava.Interp.Runtime_error _ -> ())
      | [] -> ())
    r.Casper.translations;
  check (bench_name ^ ": at least one fragment checked") true (!checked > 0)

let output_benchmarks =
  [
    "WordCount"; "StringMatch"; "LinearRegression"; "3DHistogram";
    "Sum"; "Delta"; "Average"; "Covariance"; "HadamardProduct";
    "Histogram1D"; "Range"; "WikipediaPageCount"; "DatabaseSelect";
    "Sentiment"; "Q1"; "Q6"; "Q15"; "Q17"; "PageRank"; "LogisticRegression";
    "RedToMagenta"; "Trails"; "KMeans"; "PCA";
  ]

let test_tpch_q6_known_value () =
  (* Q6 on a fixed small dataset has a hand-computable answer *)
  let b = Casper_suites.Registry.find_benchmark "Q6" in
  let r = report b in
  let t = List.hd r.Casper.translations in
  let best = List.hd t.Casper.survivors in
  let d = Casper_common.Library.parse_date in
  let li disc price qty date =
    Value.Struct
      ( "LineItem",
        [
          ("l_partkey", Value.Int 1); ("l_suppkey", Value.Int 1);
          ("l_quantity", Value.Int qty);
          ("l_extendedprice", Value.Float price);
          ("l_discount", Value.Float disc); ("l_tax", Value.Float 0.0);
          ("l_returnflag", Value.Str "N"); ("l_linestatus", Value.Str "O");
          ("l_shipdate", Value.Int (d date));
        ] )
  in
  let env =
    [
      ( "lineitem",
        Value.List
          [
            li 0.06 100.0 10 "1994-05-05";  (* qualifies: 6.0 *)
            li 0.03 100.0 10 "1994-05-05";  (* discount too low *)
            li 0.07 200.0 30 "1994-05-05";  (* quantity too high *)
            li 0.05 50.0 5 "1995-05-05";    (* outside window *)
          ] );
      ("dt1", Value.Int (d "1994-01-01"));
      ("dt2", Value.Int (d "1995-01-01"));
    ]
  in
  let entry = Vc.entry_of_params r.Casper.program t.Casper.frag env in
  let run =
    Runner.run_summary ~config:Testenv.config
      ~cluster:Mapreduce.Cluster.spark ~scale:1.0
      r.Casper.program t.Casper.frag entry best.Cegis.summary
  in
  check "revenue = 6.0" true
    (Value.equal_approx (List.assoc "revenue" run.Runner.outputs) (Value.Float 6.0))

let suite =
  [
    ( "suites.table1",
      [
        Alcotest.test_case "Phoenix 7/11" `Slow (row_test "Phoenix" 7 11);
        Alcotest.test_case "Ariths 11/11" `Slow (row_test "Ariths" 11 11);
        Alcotest.test_case "Stats 18/19" `Slow (row_test "Stats" 18 19);
        Alcotest.test_case "Biglambda 6/8" `Slow (row_test "Biglambda" 6 8);
        Alcotest.test_case "Fiji 23/35" `Slow (row_test "Fiji" 23 35);
        Alcotest.test_case "TPC-H 10/10" `Slow (row_test "TPC-H" 10 10);
        Alcotest.test_case "Iterative 7/7" `Slow (row_test "Iterative" 7 7);
        Alcotest.test_case "failure taxonomy" `Slow test_failure_taxonomy;
      ] );
    ( "suites.correctness",
      List.map
        (fun name -> Alcotest.test_case name `Slow (output_test name))
        output_benchmarks );
    ( "suites.tpch",
      [ Alcotest.test_case "Q6 known value" `Slow test_tpch_q6_known_value ]
    );
  ]
