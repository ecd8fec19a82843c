(** The experiment harness: regenerates every table and figure of the
    paper's evaluation (§7 + appendices). Run all sections with
    [dune exec bench/main.exe], or select some with
    [-- --only table1,fig7a].

    A section that raises is reported and the remaining sections still
    run; the run then exits 1. An unknown [--only] id exits 2 before
    anything runs, listing the valid ids.

    Absolute times come from the engine's calibrated cluster model
    (DESIGN.md, Substitutions) — shapes and ratios are the claims, not
    seconds. EXPERIMENTS.md records paper-vs-measured for each
    experiment. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Cegis = Casper_synth.Cegis
module Casper = Casper_core.Casper
module Runner = Casper_codegen.Runner
module Monitor = Casper_codegen.Monitor
module Vc = Casper_vcgen.Vc
module Value = Casper_common.Value
module Rng = Casper_common.Rng
module Cluster = Mapreduce.Cluster
module Engine = Mapreduce.Engine
module Exec_config = Mapreduce.Exec_config
module Plan = Mapreduce.Plan
module T = Casper_common.Tablefmt
module Stats = Casper_common.Stats
module J = Casper_common.Jsonout
module Fastpath = Casper_ir.Fastpath
module Obs = Casper_obs.Obs
open Util

(* --trace: the run's observability context. Disabled (all no-ops)
   unless --trace FILE is given; every section below threads it through
   to the pipeline so the exported Chrome trace covers synthesis and
   execution in one timeline. *)
let bench_obs : Obs.ctx ref = ref Obs.null

(* ------------------------------------------------------------------ *)
(* Table 1: feasibility + speedups per suite                            *)

let table1_feasibility () =
  section "Table 1: fragments translated and Spark speedups per suite";
  let rows = ref [] in
  List.iter
    (fun (suite_name, benches) ->
      let total = ref 0 and ok = ref 0 in
      let speedups = ref [] in
      List.iter
        (fun (b : Casper_suites.Suite.benchmark) ->
          let report = translate b in
          List.iter
            (fun (t : Casper.translation) ->
              incr total;
              if Casper.translated t then incr ok)
            report.Casper.translations;
          match run_benchmark b with
          | Some perf ->
              if not perf.all_agree then
                Fmt.pr "  !! %s: translated outputs DISAGREE@." b.name;
              speedups := perf.speedup :: !speedups
          | None -> ())
        benches;
      rows :=
        [
          suite_name;
          Fmt.str "%d / %d" !ok !total;
          T.fx (Stats.mean !speedups);
          T.fx (Stats.maximum !speedups);
        ]
        :: !rows)
    Casper_suites.Registry.suites;
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
    ([ "Suite"; "# Translated"; "Mean Speedup"; "Max Speedup" ]
    :: List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Figure 7a: Casper vs MOLD vs manual rewrites                         *)

let raw_datasets (env : Minijava.Interp.env) : (string * Value.t list) list =
  List.filter_map
    (fun (name, v) ->
      match v with Value.List l -> Some (name, l) | _ -> None)
    env

let fig7a_vs_baselines () =
  section "Figure 7a: speedup vs MOLD and manual Spark rewrites";
  let cases =
    [
      ("StringMatch", "StringMatch", "stringmatch#0");
      ("WordCount", "WordCount", "wordcount#0");
      ("LinearRegression", "LinearRegression", "linreg#0");
      ("3DHistogram", "3DHistogram", "histogram#0");
      ("WikipediaPageCount", "WikipediaPageCount", "pagecount#0");
      ("AnscombeTransform", "NLMeans", "anscombe#0");
    ]
  in
  let rows =
    List.map
      (fun (label, bench, frag_id) ->
        let b = Casper_suites.Registry.find_benchmark bench in
        let report = translate b in
        let t = find_translation b frag_id in
        let env = workload b () in
        let sample = b.workload.Casper_suites.Suite.sample_n in
        let scale = Casper_suites.Suite.scale_of b ~sample in
        let prog = report.Casper.program in
        let entry = Vc.entry_of_params prog t.Casper.frag env in
        let seq_s =
          snd (Runner.run_sequential ~scale prog t.Casper.frag entry)
        in
        let casper cluster =
          match t.Casper.survivors with
          | best :: _ ->
              let r =
                Runner.run_summary ~cluster ~scale prog t.Casper.frag entry
                  best.Cegis.summary
              in
              T.fx (seq_s /. r.Runner.time_s)
          | [] -> "-"
        in
        let mold =
          match Baselines.Mold.translate_fragment t.Casper.frag with
          | Baselines.Mold.Translated tr ->
              let time =
                List.fold_left
                  (fun acc (_, plan_of) ->
                    let run =
                      Engine.run_plan ~cluster:Cluster.spark
                        ~datasets:(raw_datasets entry) (plan_of entry)
                    in
                    acc
                    +. Engine.simulate_time ~cluster:Cluster.spark ~scale run)
                  0.0 tr.Baselines.Mold.plans
              in
              T.fx (seq_s /. time)
          | Baselines.Mold.Out_of_memory -> "OOM"
          | Baselines.Mold.No_rule -> "-"
        in
        let manual_plan =
          match label with
          | "StringMatch" ->
              Some
                (Baselines.Manual.string_match
                   ~key1:(List.assoc "key1" entry)
                   ~key2:(List.assoc "key2" entry))
          | "WordCount" -> Some Baselines.Manual.word_count
          | "LinearRegression" -> Some Baselines.Manual.linear_regression
          | "3DHistogram" -> Some Baselines.Manual.histogram_aggregate
          | "WikipediaPageCount" -> Some Baselines.Manual.wikipedia_pagecount
          | "AnscombeTransform" -> Some Baselines.Manual.anscombe
          | _ -> None
        in
        let manual =
          match manual_plan with
          | Some plan ->
              let run =
                Engine.run_plan ~cluster:Cluster.spark
                  ~datasets:(raw_datasets entry) plan
              in
              T.fx
                (seq_s /. Engine.simulate_time ~cluster:Cluster.spark ~scale run)
          | None -> "-"
        in
        [
          label;
          mold;
          manual;
          casper Cluster.spark;
          casper Cluster.flink;
          casper Cluster.hadoop;
        ])
      cases
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
    ([
       "Benchmark"; "MOLD (Spark)"; "Manual (Spark)"; "Casper (Spark)";
       "Casper (Flink)"; "Casper (Hadoop)";
     ]
    :: rows)

(* ------------------------------------------------------------------ *)
(* Figure 7b: TPC-H — Casper vs SparkSQL                                *)

let fig7b_tpch () =
  section "Figure 7b: TPC-H runtime, Casper vs SparkSQL";
  let cluster = Cluster.spark in
  let run_casper bench =
    let b = Casper_suites.Registry.find_benchmark bench in
    let report = translate b in
    let env = workload b () in
    let sample = b.workload.Casper_suites.Suite.sample_n in
    let scale = Casper_suites.Suite.scale_of b ~sample in
    let prog = report.Casper.program in
    ( List.fold_left
        (fun acc (t : Casper.translation) ->
          match t.Casper.survivors with
          | best :: _ -> (
              try
                let entry = Vc.entry_of_params prog t.Casper.frag env in
                let r =
                  Runner.run_summary ~cluster ~scale prog t.Casper.frag entry
                    best.Cegis.summary
                in
                acc +. r.Runner.time_s
              with _ -> acc)
          | [] -> acc)
        0.0 report.Casper.translations,
      env,
      scale )
  in
  let d s = Casper_common.Library.parse_date s in
  let rows =
    List.map
      (fun q ->
        let casper_s, env, scale = run_casper q in
        let datasets =
          let li =
            match List.assoc_opt "lineitem" env with
            | Some (Value.List l) -> l
            | _ -> []
          in
          let db = Tpch.Gen.generate ~seed:5 ~lineitems:(List.length li) () in
          ("lineitem", li)
          :: List.remove_assoc "lineitem" (Tpch.Gen.datasets db)
        in
        let sql =
          match q with
          | "Q1" -> Tpch.Sparksql.q1 ~cluster datasets ~cutoff:(d "1998-09-02")
          | "Q6" ->
              Tpch.Sparksql.q6 ~cluster datasets ~dt1:(d "1994-01-01")
                ~dt2:(d "1995-01-01")
          | "Q15" ->
              Tpch.Sparksql.q15 ~cluster datasets ~dt1:(d "1996-01-01")
                ~dt2:(d "1996-04-01")
          | _ ->
              Tpch.Sparksql.q17 ~cluster datasets ~brand:"Brand#12"
                ~container:"MED BOX"
        in
        let sql_s = Tpch.Sparksql.time ~cluster ~scale sql in
        [ q; T.f casper_s; T.f sql_s; T.fx (sql_s /. casper_s) ])
      [ "Q1"; "Q6"; "Q15"; "Q17" ]
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
    ([ "Query"; "Casper (s)"; "SparkSQL (s)"; "SparkSQL / Casper" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Figure 7c: iterative algorithms vs the Spark tutorial                *)

let fig7c_iterative () =
  section "Figure 7c: iterative algorithms vs Spark-tutorial reference";
  let cluster = Cluster.spark in
  let iters = 10 in
  let row bench ~per_iter_frags ref_time =
    let b = Casper_suites.Registry.find_benchmark bench in
    let report = translate b in
    let env = workload b () in
    let sample = b.workload.Casper_suites.Suite.sample_n in
    let scale = Casper_suites.Suite.scale_of b ~sample in
    let prog = report.Casper.program in
    let per_iter =
      List.fold_left
        (fun acc (t : Casper.translation) ->
          if not (List.mem t.Casper.frag.F.frag_id per_iter_frags) then acc
          else
          match t.Casper.survivors with
          | best :: _ -> (
              try
                let entry = Vc.entry_of_params prog t.Casper.frag env in
                let r =
                  Runner.run_summary ~cluster ~scale prog t.Casper.frag entry
                    best.Cegis.summary
                in
                acc +. r.Runner.time_s
              with _ -> acc)
          | [] -> acc)
        0.0 report.Casper.translations
    in
    let casper_s = float_of_int iters *. per_iter in
    let ref_s = ref_time ~scale env in
    [ bench; T.f casper_s; T.f ref_s; T.fx (casper_s /. ref_s) ]
  in
  let rows =
    [
      row "PageRank"
        ~per_iter_frags:[ "contribs#0"; "newRanks#0"; "totalRank#0" ]
        (fun ~scale env ->
          Baselines.Sparktut.pagerank_time ~cluster ~scale ~iters
            (raw_datasets env));
      row "LogisticRegression" ~per_iter_frags:[ "gradientStep#0" ]
        (fun ~scale env ->
          Baselines.Sparktut.logreg_time ~cluster ~scale ~iters
            (raw_datasets env));
    ]
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
    ([ "Benchmark"; "Casper (s)"; "SparkTut (s)"; "Casper / SparkTut" ]
    :: rows)

(* ------------------------------------------------------------------ *)
(* Extension ablation: cache() insertion for iterative workloads        *)

let cache_ablation () =
  section
    "Extension: cache() insertion closes the Fig 7c PageRank gap";
  let cluster = Cluster.spark in
  let iters = 10 in
  let b = Casper_suites.Registry.find_benchmark "PageRank" in
  let report = translate b in
  let env = workload b () in
  let sample = b.workload.Casper_suites.Suite.sample_n in
  let scale = Casper_suites.Suite.scale_of b ~sample in
  let prog = report.Casper.program in
  let runs =
    List.filter_map
      (fun (t : Casper.translation) ->
        match t.Casper.survivors with
        | best :: _ -> (
            try
              let entry = Vc.entry_of_params prog t.Casper.frag env in
              Some
                (Runner.run_summary ~cluster ~scale prog t.Casper.frag entry
                   best.Cegis.summary)
                .Runner.run
            with _ -> None)
        | [] -> None)
      report.Casper.translations
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let plain =
    total (Casper_codegen.Cacheopt.iterative_time ~cluster ~scale ~iters)
  in
  let cached =
    total (fun r ->
        fst (Casper_codegen.Cacheopt.run_iterative ~cluster ~scale ~iters r))
  in
  let decisions =
    List.map
      (fun r -> Casper_codegen.Cacheopt.decide ~cluster ~scale ~iters r)
      runs
  in
  let sparktut =
    Baselines.Sparktut.pagerank_time ~cluster ~scale ~iters (raw_datasets env)
  in
  T.print
    ~aligns:[ T.Left; T.Right ]
    [
      [ "Variant"; "time (s)" ];
      [ "Casper (no cache, as generated)"; T.f plain ];
      [ "Casper + cache() heuristic"; T.f cached ];
      [ "SparkTut reference (cached, co-partitioned)"; T.f sparktut ];
    ];
  Fmt.pr "heuristic caches %d of %d fragment inputs@."
    (List.length
       (List.filter (fun d -> d.Casper_codegen.Cacheopt.cache) decisions))
    (List.length decisions)

(* ------------------------------------------------------------------ *)
(* Table 2: compilation performance                                     *)

let table2_compilation () =
  section "Table 2: compilation performance per suite";
  let rows =
    List.map
      (fun (suite_name, benches) ->
        let times = ref [] and locs = ref [] and opss = ref [] in
        let tps = ref [] in
        List.iter
          (fun (b : Casper_suites.Suite.benchmark) ->
            let report = translate b in
            List.iter
              (fun (t : Casper.translation) ->
                if t.Casper.frag.F.unsupported = None then begin
                  times :=
                    t.Casper.outcome.Cegis.stats.Cegis.elapsed_s :: !times;
                  tps :=
                    float_of_int
                      t.Casper.outcome.Cegis.stats.Cegis.tp_failures
                    :: !tps
                end;
                match (t.Casper.spark_src, t.Casper.survivors) with
                | Some src, best :: _ ->
                    locs :=
                      float_of_int (Casper_codegen.Emit_source.loc_of src)
                      :: !locs;
                    opss :=
                      float_of_int
                        (Ir.op_count best.Cegis.summary.Ir.pipeline)
                      :: !opss
                | _ -> ())
              report.Casper.translations)
          benches;
        [
          suite_name;
          T.f ~digits:2 (Stats.mean !times);
          T.f (Stats.mean !locs);
          T.f (Stats.mean !opss);
          T.f ~digits:2 (Stats.mean !tps);
        ])
      Casper_suites.Registry.suites
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
    ([
       "Source"; "Mean Time (s)"; "Mean LOC"; "Mean # Op"; "Mean TP Failures";
     ]
    :: rows)

(* ------------------------------------------------------------------ *)
(* Table 3: incremental grammar generation ablation                     *)

let table3_incremental () =
  section "Table 3: summaries produced with vs without incremental grammars";
  let cases =
    [
      ("WordCount", "WordCount", "wordcount#0");
      ("StringMatch", "StringMatch", "stringmatch#0");
      ("LinearRegression", "LinearRegression", "linreg#0");
      ("3DHistogram", "3DHistogram", "histogram#0");
      ("YelpKids", "YelpKids", "yelpkids#0");
      ("WikipediaPageCount", "WikipediaPageCount", "pagecount#0");
      ("Covariance", "Covariance", "covariance#0");
      ("HadamardProduct", "HadamardProduct", "hadamard#0");
      ("DatabaseSelect", "DatabaseSelect", "select#0");
      ("AnscombeTransform", "NLMeans", "anscombe#0");
    ]
  in
  let rows =
    List.map
      (fun (label, bench, frag_id) ->
        let b = Casper_suites.Registry.find_benchmark bench in
        let t = find_translation b frag_id in
        let with_incr = List.length t.Casper.outcome.Cegis.solutions in
        let prog = (translate b).Casper.program in
        let flat =
          Cegis.find_summary
            ~config:
              {
                bench_config with
                Cegis.incremental = false;
                max_solutions = 2000;
              }
            prog t.Casper.frag
        in
        let without = List.length flat.Cegis.solutions in
        [
          label;
          string_of_int with_incr;
          Fmt.str "%d%s" without
            (if
               flat.Cegis.stats.Cegis.timed_out
               || flat.Cegis.stats.Cegis.candidates_tried
                  >= bench_config.Cegis.max_candidates
             then " (timeout)"
             else "");
        ])
      cases
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right ]
    ([ "Benchmark"; "With Incr. Grammar"; "Without Incr. Grammar" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Figure 8: StringMatch dynamic tuning                                 *)

let classify_sm_solution (s : Cegis.solution) =
  let open Ir in
  match s.Cegis.summary.pipeline with
  | Reduce (Map (_, { emits; _ }), _) ->
      let guarded = List.for_all (fun e -> e.guard <> None) emits in
      let tuple_style =
        List.exists
          (fun (_, ex) -> match ex with Proj _ -> true | _ -> false)
          s.Cegis.summary.bindings
      in
      if tuple_style then `B else if guarded then `C else `A
  | _ -> `Other

let fig8_dynamic_tuning () =
  section "Figure 8: StringMatch — dynamic selection of the optimal plan";
  let b = Casper_suites.Registry.find_benchmark "StringMatch" in
  let prog = Minijava.Parser.parse_program b.source in
  let frags =
    Casper_analysis.Analyze.fragments_of_program prog ~suite:b.suite
      ~benchmark:b.name
  in
  let frag =
    List.find (fun (f : F.t) -> f.F.frag_id = "stringmatch#0") frags
  in
  (* explore every grammar class so the tuple-style solution (b) is in
     the candidate set alongside the conditional-emit solution (c) *)
  let outcome =
    Cegis.find_summary
      ~config:
        { bench_config with Cegis.max_solutions = 64; explore_all = true }
      prog frag
  in
  let find cls =
    List.find_opt
      (fun s -> classify_sm_solution s = cls)
      outcome.Cegis.solutions
  in
  match (find `A, find `B, find `C) with
  | _, Some sol_b, Some sol_c ->
      Fmt.pr
        "solution (b) [unconditional tuple emit, static cost %.3g]:@.  %a@."
        sol_b.Cegis.static_cost Ir.pp_summary sol_b.Cegis.summary;
      Fmt.pr
        "solution (c) [conditional keyed emit, static cost %.3g at p=0.5]:@.  \
         %a@.@."
        sol_c.Cegis.static_cost Ir.pp_summary sol_c.Cegis.summary;
      (find `A
      |> Option.iter (fun (a : Cegis.solution) ->
             Fmt.pr
               "solution (a) [unconditional keyed emit, cost %.3g] is \
                dominated at compile time@.@."
               a.Cegis.static_cost));
      let rows =
        List.map
          (fun p ->
            let n = 8000 in
            let rng = Rng.create 99 in
            let words =
              Casper_suites.Workload.match_words rng ~n ~key1:"hello"
                ~key2:"world" ~p1:(p /. 2.0) ~p2:(p /. 2.0)
            in
            let env =
              [
                ("words", words);
                ("key1", Value.Str "hello");
                ("key2", Value.Str "world");
              ]
            in
            let entry = Vc.entry_of_params prog frag env in
            let sample =
              List.filteri
                (fun i _ -> i < Monitor.sample_k)
                (Value.as_list words)
            in
            let nominal = 750_000_000.0 in
            let choice =
              Monitor.choose prog frag entry
                [ sol_b.Cegis.summary; sol_c.Cegis.summary ]
                ~n:nominal sample
            in
            let time s =
              (Runner.run_summary ~cluster:Cluster.spark
                 ~scale:(nominal /. float_of_int n)
                 prog frag entry s)
                .Runner.time_s
            in
            let tb = time sol_b.Cegis.summary in
            let tc = time sol_c.Cegis.summary in
            let chosen = if choice.Monitor.chosen = 0 then "(b)" else "(c)" in
            let optimal = if tb < tc then "(b)" else "(c)" in
            [
              Fmt.str "%.0f%% match" (p *. 100.0);
              Fmt.str "%.2e" (List.nth choice.Monitor.costs 0);
              Fmt.str "%.2e" (List.nth choice.Monitor.costs 1);
              T.f tb;
              T.f tc;
              chosen;
              optimal;
              (if String.equal chosen optimal then "yes" else "NO");
            ])
          [ 0.0; 0.5; 0.95 ]
      in
      T.print
        ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
        ([
           "Dataset"; "cost (b)"; "cost (c)"; "time (b) s"; "time (c) s";
           "monitor picks"; "optimal"; "correct?";
         ]
        :: rows)
  | _ ->
      Fmt.pr
        "could not isolate solutions (b) and (c) among %d synthesized \
         summaries@."
        (List.length outcome.Cegis.solutions)

(* ------------------------------------------------------------------ *)
(* §7.4: join-ordering selection on the 3-way TPC-H join                *)

let fig8_join_ordering () =
  section "§7.4: dynamic join ordering on the 3-way TPC-H join";
  let cluster = Cluster.spark in
  let mk_plan ~first : Plan.t =
    let keyed src field =
      Plan.(
        data src
        |>> map_to_pair ~label:("key " ^ src) (fun r ->
                (Value.field field r, r)))
    in
    let parts = keyed "part" "p_partkey" in
    let supps = keyed "supplier" "s_suppkey" in
    let project_sum p =
      Plan.(
        p
        |>> flat_map ~label:"project cost" (fun r ->
                match r with
                | Value.Tuple [ _; Value.Tuple [ Value.Tuple [ ps; _ ]; _ ] ]
                  ->
                    [ Value.field "ps_supplycost" ps ]
                | _ -> [])
        |>> global_reduce ~label:"sum" (fun a b ->
                Value.Float (Value.as_float a +. Value.as_float b)))
    in
    match first with
    | `Part ->
        project_sum
          Plan.(
            keyed "partsupp" "ps_partkey"
            |>> join_with ~label:"join part" parts
            |>> map_to_pair ~label:"rekey supp" (fun r ->
                    match r with
                    | Value.Tuple [ _; (Value.Tuple [ ps; _ ] as pair) ] ->
                        (Value.field "ps_suppkey" ps, pair)
                    | _ -> (Value.Int 0, r))
            |>> join_with ~label:"join supplier" supps)
    | `Supplier ->
        project_sum
          Plan.(
            keyed "partsupp" "ps_suppkey"
            |>> join_with ~label:"join supplier" supps
            |>> map_to_pair ~label:"rekey part" (fun r ->
                    match r with
                    | Value.Tuple [ _; (Value.Tuple [ ps; _ ] as pair) ] ->
                        (Value.field "ps_partkey" ps, pair)
                    | _ -> (Value.Int 0, r))
            |>> join_with ~label:"join part" parts)
  in
  let configs =
    (* a dimension table with duplicate keys multiplies the first join's
       output, inflating the second exchange — the cardinality effect
       §7.4's two parameter configurations exercise *)
    [
      ("part blows up (8 rows/key)", 8, 1);
      ("supplier blows up (8 rows/key)", 1, 8);
    ]
  in
  let rows =
    List.map
      (fun (label, part_dup, supp_dup) ->
        let rng = Rng.create 4 in
        let nkeys = 120 in
        let dup_table mk dup =
          List.concat
            (List.init nkeys (fun i ->
                 List.init dup (fun _ -> mk rng ~key:(i + 1))))
        in
        let datasets =
          [
            ( "partsupp",
              List.init 3000 (fun _ ->
                  Tpch.Gen.partsupp rng ~parts:nkeys ~suppliers:nkeys) );
            ("part", dup_table Tpch.Gen.part part_dup);
            ("supplier", dup_table Tpch.Gen.supplier supp_dup);
          ]
        in
        let time first =
          let run = Engine.run_plan ~cluster ~datasets (mk_plan ~first) in
          Engine.simulate_time ~cluster ~scale:20000.0 run
        in
        let t_part = time `Part and t_supp = time `Supplier in
        (* monitor: estimated first-join output = |partsupp| × key
           multiplicity of the joined table; do the low-multiplicity
           join first *)
        let multiplicity name =
          let rows = List.assoc name datasets in
          float_of_int (List.length rows) /. float_of_int nkeys
        in
        let chosen =
          if multiplicity "part" <= multiplicity "supplier" then `Part
          else `Supplier
        in
        let chosen_s =
          match chosen with
          | `Part -> "part first"
          | `Supplier -> "supplier first"
        in
        let optimal_s =
          if t_part <= t_supp then "part first" else "supplier first"
        in
        [
          label;
          T.f t_part;
          T.f t_supp;
          chosen_s;
          optimal_s;
          (if String.equal chosen_s optimal_s then "yes" else "NO");
        ])
      configs
  in
  T.print
    ([
       "Configuration"; "part-first (s)"; "supplier-first (s)";
       "monitor picks"; "optimal"; "correct?";
     ]
    :: rows)

(* ------------------------------------------------------------------ *)
(* Table 4 (E.3): data movement vs runtime                              *)

let table4_cost_heuristics () =
  section "Table 4 (App E.3): shuffle/emission volume vs runtime";
  let cluster = Cluster.spark in
  let n = 8000 in
  let rng = Rng.create 31 in
  let words = Casper_suites.Workload.words rng ~n ~vocab:400 ~skew:1.0 in
  let sm_words =
    Casper_suites.Workload.match_words rng ~n ~key1:"hello" ~key2:"world"
      ~p1:0.001 ~p2:0.001
  in
  let scale = 750_000_000.0 /. float_of_int n in
  let datasets =
    [ ("words", Value.as_list words); ("smwords", Value.as_list sm_words) ]
  in
  let add_i a b = Value.Int (Value.as_int a + Value.as_int b) in
  let wc1 =
    Plan.(
      data "words"
      |>> map_to_pair ~label:"mapToPair" (fun w -> (w, Value.Int 1))
      |>> reduce_by_key ~comm_assoc:true add_i)
  in
  let wc2 =
    (* no local aggregation: ships every (word, 1) pair *)
    Plan.(
      data "words"
      |>> map_to_pair ~label:"mapToPair" (fun w -> (w, Value.Int 1))
      |>> reduce_by_key ~comm_assoc:false add_i)
  in
  let key1 = Value.Str "hello" and key2 = Value.Str "world" in
  let sm1 =
    Plan.(
      data "smwords"
      |>> flat_map ~label:"emit on match" (fun w ->
              if Value.equal w key1 || Value.equal w key2 then
                [ Value.Tuple [ w; Value.Bool true ] ]
              else [])
      |>> reduce_by_key (fun a b ->
              Value.Bool (Value.as_bool a || Value.as_bool b)))
  in
  let sm2 =
    Plan.(
      data "smwords"
      |>> flat_map ~label:"always emit" (fun w ->
              [
                Value.Tuple [ key1; Value.Bool (Value.equal w key1) ];
                Value.Tuple [ key2; Value.Bool (Value.equal w key2) ];
              ])
      |>> reduce_by_key (fun a b ->
              Value.Bool (Value.as_bool a || Value.as_bool b)))
  in
  let row name plan =
    let run = Engine.run_plan ~cluster ~datasets plan in
    let scaled v = float_of_int v *. scale /. 1048576.0 in
    [
      name;
      Fmt.str "%.0f" (scaled (Engine.total_emitted run));
      Fmt.str "%.1f" (Engine.effective_shuffled ~scale run /. 1048576.0);
      T.f (Engine.simulate_time ~cluster ~scale run);
    ]
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
    ([ "Program"; "Emitted (MB)"; "Shuffled (MB)"; "Runtime (s)" ]
    :: [
         row "WC 1 (combiners)" wc1;
         row "WC 2 (no combiners)" wc2;
         row "SM 1 (emit on match)" sm1;
         row "SM 2 (always emit)" sm2;
       ])

(* ------------------------------------------------------------------ *)
(* Figure 9 (E.4): scalability with input size                          *)

let fig9_scalability () =
  section "Figure 9 (App E.4): speedup vs input size (GB)";
  let cases =
    [
      ("WikipediaPageCount", "WikipediaPageCount");
      ("DatabaseSelect", "DatabaseSelect");
      ("3DHistogram", "3DHistogram");
      ("RedToMagenta", "RedToMagenta");
    ]
  in
  let sizes = [ 10.0; 30.0; 50.0; 70.0; 100.0 ] in
  let rows =
    List.map
      (fun (label, bench) ->
        let b = Casper_suites.Registry.find_benchmark bench in
        let report = translate b in
        let env = workload b () in
        let sample = b.workload.Casper_suites.Suite.sample_n in
        let prog = report.Casper.program in
        (* execute each fragment once; re-cost the same run at every
           nominal size (the engine separates execution from the time
           model exactly for this) *)
        let base = Casper_suites.Suite.scale_of b ~sample in
        let runs =
          List.filter_map
            (fun (t : Casper.translation) ->
              match t.Casper.survivors with
              | best :: _ -> (
                  try
                    let entry = Vc.entry_of_params prog t.Casper.frag env in
                    let seq1 =
                      snd
                        (Runner.run_sequential ~scale:1.0 prog t.Casper.frag
                           entry)
                    in
                    let r =
                      Runner.run_summary ~cluster:Cluster.spark ~scale:1.0
                        prog t.Casper.frag entry best.Cegis.summary
                    in
                    Some (seq1, r.Runner.run)
                  with _ -> None)
              | [] -> None)
            report.Casper.translations
        in
        label
        :: List.map
             (fun gb ->
               let scale = base *. (gb /. 75.0) in
               let seq = ref 0.0 and mr = ref 0.0 in
               List.iter
                 (fun (seq1, run) ->
                   seq := !seq +. (seq1 *. scale);
                   mr :=
                     !mr
                     +. Engine.simulate_time ~cluster:Cluster.spark ~scale run)
                 runs;
               if !mr > 0.0 then T.fx (!seq /. !mr) else "-")
             sizes)
      cases
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
    (("Benchmark" :: List.map (fun s -> Fmt.str "%.0fGB" s) sizes) :: rows)

(* ------------------------------------------------------------------ *)
(* Appendix E.1: syntactic features                                     *)

let table_e1_features () =
  section "Appendix E.1: syntactic features of extracted fragments";
  let counts = Hashtbl.create 8 in
  let bump feat translated =
    let ext, tr =
      Option.value (Hashtbl.find_opt counts feat) ~default:(0, 0)
    in
    Hashtbl.replace counts feat (ext + 1, if translated then tr + 1 else tr)
  in
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let report = translate b in
      List.iter
        (fun (t : Casper.translation) ->
          List.iter
            (fun feat -> bump (F.feature_name feat) (Casper.translated t))
            t.Casper.frag.F.features)
        report.Casper.translations)
    Casper_suites.Registry.all_benchmarks;
  let rows =
    List.map
      (fun feat ->
        let ext, tr =
          Option.value (Hashtbl.find_opt counts feat) ~default:(0, 0)
        in
        [ feat; string_of_int ext; string_of_int tr ])
      [
        "Conditionals"; "User Defined Types"; "Nested Loops";
        "Multiple Datasets"; "Multidim. Dataset";
      ]
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right ]
    ([ "Benchmark Properties"; "# Extracted"; "# Translated" ] :: rows)

(* ------------------------------------------------------------------ *)
(* §7.5: extensibility — Fold-IR                                        *)

let table5_extensibility () =
  section "§7.5: Fold-IR extension over the Ariths suite";
  let rows =
    List.map
      (fun (b : Casper_suites.Suite.benchmark) ->
        let prog = Minijava.Parser.parse_program b.source in
        let frags =
          Casper_analysis.Analyze.fragments_of_program prog ~suite:b.suite
            ~benchmark:b.name
        in
        let frag = List.hd frags in
        let r = Fold_ir.find_summary prog frag in
        [
          b.name;
          (if r.Fold_ir.complete then "synthesized" else "FAILED");
          string_of_int r.Fold_ir.tried;
          String.concat "; "
            (List.map (fun s -> Fmt.str "%a" Fold_ir.pp s) r.Fold_ir.found);
        ])
      Casper_suites.Ariths.all
  in
  T.print ([ "Benchmark"; "Fold-IR"; "Candidates"; "Summary" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Synthesis performance: the Table 2 search workload                   *)

let json_synth : J.t ref = ref J.Null

type synth_run = {
  sp_suite : string;
  sp_wall : float;
  sp_frags : int;
  sp_cand : int;
  sp_iters : int;
}

(** Synthesize every supported fragment of every suite (the Table 2
    workload), fresh — no translation cache — and report per-suite wall
    time and search volume. *)
let synth_measure () : synth_run list =
  let obs = !bench_obs in
  List.map
    (fun (suite_name, benches) ->
      Obs.span obs ~args:[ ("suite", suite_name) ] "suite" @@ fun () ->
      let t0 = Obs.wall_clock () in
      let cand = ref 0 and iters = ref 0 and nfrags = ref 0 in
      List.iter
        (fun (b : Casper_suites.Suite.benchmark) ->
          let prog = Minijava.Parser.parse_program b.source in
          let frags =
            Casper_analysis.Analyze.fragments_of_program ~obs prog
              ~suite:b.suite ~benchmark:b.name
          in
          List.iter
            (fun (f : F.t) ->
              if f.F.unsupported = None then begin
                incr nfrags;
                let o = Cegis.find_summary ~obs ~config:bench_config prog f in
                cand := !cand + o.Cegis.stats.Cegis.candidates_tried;
                iters := !iters + o.Cegis.stats.Cegis.cegis_iterations
              end)
            frags)
        benches;
      {
        sp_suite = suite_name;
        sp_wall = Obs.wall_clock () -. t0;
        sp_frags = !nfrags;
        sp_cand = !cand;
        sp_iters = !iters;
      })
    Casper_suites.Registry.suites

let per_sec count wall =
  if wall > 0.0 then Fmt.str "%.0f" (float_of_int count /. wall) else "-"

let json_of_runs (runs : synth_run list) : J.t =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("suite", J.Str r.sp_suite);
             ("fragments", J.Int r.sp_frags);
             ("wall_s", J.Float r.sp_wall);
             ("candidates", J.Int r.sp_cand);
             ("cegis_iterations", J.Int r.sp_iters);
             ( "candidates_per_s",
               J.Float (float_of_int r.sp_cand /. r.sp_wall) );
             ( "iterations_per_s",
               J.Float (float_of_int r.sp_iters /. r.sp_wall) );
           ])
       runs)

let synth_perf () =
  section "Synthesis performance: one fast-path pass (Table 2 workload)";
  Fastpath.reset_counters ();
  (* words the pass allocates: deterministic, unlike its wall time, so
     tools/check_overhead.sh gates tracing overhead on it *)
  let w0 = Gc.minor_words () in
  let runs = synth_measure () in
  let minor_words = Gc.minor_words () -. w0 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let total_s = List.fold_left (fun a r -> a +. r.sp_wall) 0.0 runs in
  let row suite frags wall cand iters =
    [
      suite;
      string_of_int frags;
      T.f ~digits:2 wall;
      per_sec cand wall;
      per_sec iters wall;
    ]
  in
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
    ([ "Suite"; "# Frag"; "Wall (s)"; "cand/s"; "iters/s" ]
     :: List.map
          (fun r -> row r.sp_suite r.sp_frags r.sp_wall r.sp_cand r.sp_iters)
          runs
    @ [
        row "TOTAL"
          (sum (fun r -> r.sp_frags))
          total_s
          (sum (fun r -> r.sp_cand))
          (sum (fun r -> r.sp_iters));
      ]);
  Fmt.pr "@.fast-path caches: %a@." Fastpath.pp_counters ();
  let c = Fastpath.counters () in
  json_synth :=
    J.Obj
      [
        ("workload", J.Str "table2");
        ("suites", json_of_runs runs);
        ("total_s", J.Float total_s);
        ("minor_words", J.Int (int_of_float minor_words));
        ( "counters",
          J.Obj
            [
              ("eval_hits", J.Int c.Fastpath.eval_hits);
              ("eval_misses", J.Int c.Fastpath.eval_misses);
              ("cell_hits", J.Int c.Fastpath.cell_hits);
              ("cell_misses", J.Int c.Fastpath.cell_misses);
              ("emit_fp_hits", J.Int c.Fastpath.emit_fp_hits);
              ("emit_fp_misses", J.Int c.Fastpath.emit_fp_misses);
              ("phi_hits", J.Int c.Fastpath.phi_hits);
              ("verdict_hits", J.Int c.Fastpath.verdict_hits);
              ("prefix_forced", J.Int c.Fastpath.prefix_forced);
              ("prefix_reused", J.Int c.Fastpath.prefix_reused);
              ("lm_records", J.Int c.Fastpath.lm_records);
              ("loop_units", J.Int c.Fastpath.loop_units);
            ] );
      ]

(* ------------------------------------------------------------------ *)
(* Out-of-core shuffle: in-memory vs memory-budgeted grouping           *)

(** Wall-clock overhead of the spill path on scaled wordcount and
    groupByKey runs at shrinking memory budgets, with hard
    output-equality assertions against the in-memory path (a failure
    here is a correctness bug, not a perf regression). Spill volumes
    (runs written, bytes spilled, merge fan-in) come from an extra
    instrumented run per point, outside the timed reps. Results land in
    [BENCH_spill.json]. *)
let spill_perf () =
  section "Out-of-core shuffle: in-memory vs budgeted spill (wall-clock)";
  let n = 60_000 in
  let rng = Rng.create 29 in
  let words =
    Value.as_list (Casper_suites.Workload.words rng ~n ~vocab:1000 ~skew:1.1)
  in
  let add_i a b = Value.Int (Value.as_int a + Value.as_int b) in
  let workloads =
    [
      ( "wordcount",
        Plan.(
          data "d"
          |>> map_to_pair (fun w -> (w, Value.Int 1))
          |>> reduce_by_key ~comm_assoc:true add_i) );
      ( "groupByKey",
        Plan.(
          data "d" |>> map_to_pair (fun w -> (w, Value.Int 1))
          |>> group_by_key ()) );
    ]
  in
  (* 0 = the in-memory reference; the rest force progressively more
     spilling (at 16 KiB the 60k-record shuffle writes dozens of runs) *)
  let budgets =
    [ ("in-memory", 0); ("256K", 262144); ("64K", 65536); ("16K", 16384) ]
  in
  let datasets = [ ("d", words) ] in
  let reps = 5 in
  let time_min f =
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Obs.wall_clock () in
      let r = f () in
      let dt = Obs.wall_clock () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let rows = ref [] and json_workloads = ref [] in
  List.iter
    (fun (name, plan) ->
      let run_at ?obs budget =
        Engine.run_plan
          ~config:
            {
              Exec_config.default with
              Exec_config.obs;
              memory_budget = Some budget;
            }
          ~cluster:Cluster.spark ~datasets plan
      in
      let mem_run, mem_wall = time_min (fun () -> run_at 0) in
      let json_budgets =
        List.map
          (fun (blabel, budget) ->
            let r, wall =
              if budget = 0 then (mem_run, mem_wall)
              else time_min (fun () -> run_at budget)
            in
            (* byte-identity is the whole point: outputs AND accounting *)
            if r.Engine.output <> mem_run.Engine.output then
              failwith
                (Fmt.str "spill_perf: %s output differs at budget %s" name
                   blabel);
            if r.Engine.stages <> mem_run.Engine.stages then
              failwith
                (Fmt.str "spill_perf: %s stage accounting differs at budget \
                          %s" name blabel);
            let obs = Obs.create () in
            (if budget > 0 then
               let rs = run_at ~obs budget in
               if rs.Engine.output <> mem_run.Engine.output then
                 failwith
                   (Fmt.str "spill_perf: %s instrumented run differs" name));
            let runs_written = Obs.total obs "spill_runs" in
            let bytes_spilled = Obs.total obs "spill_bytes" in
            let fanin = Obs.total obs "spill_merge_fanin" in
            let overhead = if mem_wall > 0.0 then wall /. mem_wall else 1.0 in
            rows :=
              [
                name;
                blabel;
                Fmt.str "%.1f" (wall *. 1e3);
                T.fx overhead;
                string_of_int runs_written;
                Fmt.str "%.1f" (float_of_int bytes_spilled /. 1024.0);
                string_of_int fanin;
              ]
              :: !rows;
            J.Obj
              [
                ("budget", J.Str blabel);
                ("budget_bytes", J.Int budget);
                ("wall_s", J.Float wall);
                ("overhead_vs_memory", J.Float overhead);
                ("runs_written", J.Int runs_written);
                ("bytes_spilled", J.Int bytes_spilled);
                ("merge_fanin", J.Int fanin);
              ])
          budgets
      in
      json_workloads :=
        J.Obj
          [ ("workload", J.Str name); ("budgets", J.List json_budgets) ]
        :: !json_workloads)
    workloads;
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ]
    ([
       "Workload"; "budget"; "wall ms"; "vs mem"; "runs"; "spilled KiB";
       "fan-in";
     ]
    :: List.rev !rows);
  Fmt.pr
    "@.outputs and stage accounting identical at every budget: yes@.";
  J.write_file "BENCH_spill.json"
    (J.Obj
       [
         ("schema", J.Str "casper-bench-spill/v1");
         ("records", J.Int n);
         ("reps", J.Int reps);
         ("identical_outputs", J.Bool true);
         ("workloads", J.List (List.rev !json_workloads));
       ]);
  Fmt.pr "wrote BENCH_spill.json@."

(* ------------------------------------------------------------------ *)
(* Lineage cache: iterative fragments, cold vs cache-served             *)

(** The Fig 7c driver loops run the same compiled plan over the same
    datasets every iteration — exactly the shape the lineage cache
    memoizes. Each of the 7 Iterative fragments is compiled once and
    its datasets materialized once (so lineage identity is preserved
    across iterations), then driven [iters] times cold and [iters]
    times against a fresh cache (1 miss + [iters-1] hits). Every
    cache-served iteration is asserted byte-identical to the cold run
    on outputs AND stage accounting — a failure here is a correctness
    bug, not a perf regression. Results land in [BENCH_cache.json]. *)
let cache_perf () =
  section "Lineage cache: iterative fragments, cold vs cache-served";
  let cluster = Cluster.spark in
  let iters = 10 in
  let reps = 3 in
  let cases =
    [
      ("PageRank", "contribs#0");
      ("PageRank", "newRanks#0");
      ("PageRank", "totalRank#0");
      ("LogisticRegression", "gradientStep#0");
      ("LogisticRegression", "squaredLoss#0");
      ("LogisticRegression", "countCorrect#0");
      ("LogisticRegression", "predictions#0");
    ]
  in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Obs.wall_clock () in
      f ();
      let dt = Obs.wall_clock () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let rows = ref [] and json_frags = ref [] and fast = ref 0 in
  List.iter
    (fun (bench, frag_id) ->
      let b = Casper_suites.Registry.find_benchmark bench in
      let t = find_translation b frag_id in
      match t.Casper.survivors with
      | [] -> Fmt.pr "  !! %s %s: no survivor, skipped@." bench frag_id
      | best :: _ ->
          let report = translate b in
          let prog = report.Casper.program in
          let env = workload b () in
          let entry = Vc.entry_of_params prog t.Casper.frag env in
          let translated =
            Casper_codegen.Compile.compile prog t.Casper.frag entry
              best.Cegis.summary
          in
          let datasets = Runner.datasets_of prog t.Casper.frag entry in
          let plan = translated.Casper_codegen.Compile.plan in
          let run ?cache () =
            Engine.run_plan
              ~config:{ Exec_config.default with Exec_config.cache }
              ~cluster ~datasets plan
          in
          let cold0 = run () in
          let records =
            List.fold_left (fun a (_, l) -> a + List.length l) 0 datasets
          in
          let iterate ?cache () =
            for _ = 1 to iters do
              let r = run ?cache () in
              if r.Engine.output <> cold0.Engine.output then
                failwith
                  (Fmt.str "cache_perf: %s output differs from cold run"
                     frag_id);
              if r.Engine.stages <> cold0.Engine.stages then
                failwith
                  (Fmt.str "cache_perf: %s stage accounting differs" frag_id)
            done
          in
          let cold_wall = time_min (fun () -> iterate ()) in
          let last_stats = ref None in
          let cached_wall =
            time_min (fun () ->
                let cache = Engine.make_cache () in
                iterate ~cache ();
                last_stats := Some (Engine.cache_stats cache))
          in
          let stats = Option.get !last_stats in
          if stats.Mapreduce.Cache.hits <> iters - 1 then
            failwith
              (Fmt.str "cache_perf: %s expected %d hits, saw %d" frag_id
                 (iters - 1) stats.Mapreduce.Cache.hits);
          let speedup =
            if cached_wall > 0.0 then cold_wall /. cached_wall else 1.0
          in
          if speedup >= 1.5 then incr fast;
          rows :=
            [
              bench ^ " " ^ frag_id;
              string_of_int records;
              Fmt.str "%.2f" (cold_wall *. 1e3);
              Fmt.str "%.2f" (cached_wall *. 1e3);
              T.fx speedup;
              string_of_int stats.Mapreduce.Cache.hits;
            ]
            :: !rows;
          json_frags :=
            J.Obj
              [
                ("benchmark", J.Str bench);
                ("fragment", J.Str frag_id);
                ("records", J.Int records);
                ("cold_s", J.Float cold_wall);
                ("cached_s", J.Float cached_wall);
                ("speedup", J.Float speedup);
                ("hits", J.Int stats.Mapreduce.Cache.hits);
                ("misses", J.Int stats.Mapreduce.Cache.misses);
              ]
            :: !json_frags)
    cases;
  T.print
    ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ]
    ([
       "Fragment"; "records"; "cold ms"; "cached ms"; "speedup"; "hits";
     ]
    :: List.rev !rows);
  Fmt.pr
    "@.cache-served >=1.5x on %d of %d fragments; outputs and stage \
     accounting byte-identical everywhere@."
    !fast (List.length cases);
  J.write_file "BENCH_cache.json"
    (J.Obj
       [
         ("schema", J.Str "casper-bench-cache/v1");
         ("iters", J.Int iters);
         ("reps", J.Int reps);
         ("identical_outputs", J.Bool true);
         ("speedup_ge_1_5", J.Int !fast);
         ("fragments", J.List (List.rev !json_frags));
       ]);
  Fmt.pr "wrote BENCH_cache.json@."

(* ------------------------------------------------------------------ *)
(* Serving sessions: a mixed plan stream at concurrency 1 / 2 / 4       *)

(** A serving workload: a mixed stream of WordCount / Mean / TPC-H-Q6
    style plans, each job with its own dataset, submitted to one
    {!Exec.Session} and awaited. Three concurrency levels share the
    same stream; every job's output and stage accounting is asserted
    byte-identical to a solo [Engine.run_plan] (hard failure — the
    session determinism contract, DESIGN.md §14). Throughput per level
    is reported honestly: on a single-core host concurrency cannot pay
    and the JSON records [recommended_domains] so readers can tell; a
    >= 4-core host must show >= 2x at concurrency 4 or the section
    fails. Results land in [BENCH_serve.json]. *)
let serve_perf () =
  section "Serving sessions: mixed plan stream at concurrency 1 / 2 / 4";
  let module Exec = Casper_exec.Exec in
  let host = Domain.recommended_domain_count () in
  let cluster = Cluster.spark in
  let vi = Value.as_int in
  let wc_plan =
    Plan.(
      data "words"
      |>> map_to_pair (fun w -> (w, Value.Int 1))
      |>> reduce_by_key ~comm_assoc:true (fun a b ->
              Value.Int (vi a + vi b)))
  in
  let mean_plan =
    Plan.(
      data "nums"
      |>> map (fun x -> Value.Tuple [ x; Value.Int 1 ])
      |>> global_reduce ~comm_assoc:true (fun a b ->
              match (a, b) with
              | Value.Tuple [ s1; n1 ], Value.Tuple [ s2; n2 ] ->
                  Value.Tuple
                    [ Value.Int (vi s1 + vi s2); Value.Int (vi n1 + vi n2) ]
              | _ -> assert false))
  in
  let q6_plan =
    Plan.(
      data "lineitem"
      |>> filter (fun r ->
              match r with
              | Value.Tuple [ _; disc; qty ] -> vi disc >= 5 && vi qty < 24
              | _ -> false)
      |>> map (fun r ->
              match r with
              | Value.Tuple [ price; disc; _ ] -> Value.Int (vi price * vi disc)
              | _ -> assert false)
      |>> global_reduce ~comm_assoc:true (fun a b -> Value.Int (vi a + vi b)))
  in
  let per_plan = 6 in
  (* one dataset per (workload, job index), generated once and shared
     by the solo baselines and every concurrency level *)
  let jobs =
    List.concat
      (List.init per_plan (fun j ->
           let rng = Rng.create (100 + j) in
           let words =
             Value.as_list
               (Casper_suites.Workload.words rng ~n:20_000 ~vocab:400
                  ~skew:1.1)
           in
           let nums =
             List.init 40_000 (fun i -> Value.Int (Rng.int rng 1_000 + (i mod 7)))
           in
           let lineitem =
             List.init 40_000 (fun _ ->
                 Value.Tuple
                   [
                     Value.Int (Rng.int rng 10_000);
                     Value.Int (Rng.int rng 11);
                     Value.Int (Rng.int rng 50);
                   ])
           in
           [
             ("wc", wc_plan, [ ("words", words) ]);
             ("mean", mean_plan, [ ("nums", nums) ]);
             ("q6", q6_plan, [ ("lineitem", lineitem) ]);
           ]))
  in
  let solo =
    List.map
      (fun (_, plan, datasets) -> Engine.run_plan ~cluster ~datasets plan)
      jobs
  in
  let reps = 3 in
  let run_at conc =
    let best = ref infinity in
    for _ = 1 to reps do
      let config =
        { Exec.Config.default with Exec.Config.concurrency = Some conc }
      in
      let t0 = Obs.wall_clock () in
      Exec.Session.with_session ~config (fun s ->
          let handles =
            List.map
              (fun (_, plan, datasets) ->
                Exec.Session.submit s ~cluster ~datasets plan)
              jobs
          in
          List.iteri
            (fun i h ->
              match Exec.Session.await s h with
              | Exec.Session.Completed r ->
                  let b = List.nth solo i in
                  let name, _, _ = List.nth jobs i in
                  if r.Engine.output <> b.Engine.output then
                    failwith
                      (Fmt.str
                         "serve_perf: %s job %d output differs at \
                          concurrency %d"
                         name i conc);
                  if r.Engine.stages <> b.Engine.stages then
                    failwith
                      (Fmt.str
                         "serve_perf: %s job %d stage accounting differs \
                          at concurrency %d"
                         name i conc)
              | Exec.Session.Cancelled r ->
                  failwith
                    (Fmt.str "serve_perf: job %d spuriously cancelled (%s)" i
                       r)
              | Exec.Session.Failed m ->
                  failwith (Fmt.str "serve_perf: job %d failed: %s" i m))
            handles);
      let dt = Obs.wall_clock () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let n_jobs = List.length jobs in
  let results = List.map (fun conc -> (conc, run_at conc)) [ 1; 2; 4 ] in
  let base = List.assoc 1 results in
  T.print
    ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right ]
    ([ "concurrency"; "jobs"; "wall (s)"; "jobs/s"; "speedup" ]
    :: List.map
         (fun (conc, w) ->
           [
             string_of_int conc;
             string_of_int n_jobs;
             T.f ~digits:3 w;
             T.f ~digits:1 (float_of_int n_jobs /. w);
             T.fx (base /. w);
           ])
         results);
  Fmt.pr
    "@.outputs and stage accounting byte-identical to solo runs at every \
     concurrency: yes (%d jobs x 3 levels)@.host recommended domains: %d@."
    n_jobs host;
  let speedup4 = base /. List.assoc 4 results in
  J.write_file "BENCH_serve.json"
    (J.Obj
       [
         ("schema", J.Str "casper-bench-serve/v1");
         ("identical_outputs", J.Bool true);
         ("recommended_domains", J.Int host);
         ("jobs", J.Int n_jobs);
         ("reps", J.Int reps);
         ( "runs",
           J.List
             (List.map
                (fun (conc, w) ->
                  J.Obj
                    [
                      ("concurrency", J.Int conc);
                      ("wall_s", J.Float w);
                      ("jobs_per_s", J.Float (float_of_int n_jobs /. w));
                      ("speedup_vs_1", J.Float (base /. w));
                    ])
                results) );
       ]);
  Fmt.pr "wrote BENCH_serve.json@.";
  (* the throughput claim is only falsifiable where the hardware can
     pay for overlap; a 1-core container asserting 2x would be noise *)
  if host >= 4 && speedup4 < 2.0 then
    failwith
      (Fmt.str
         "serve_perf: expected >= 2x throughput at concurrency 4 on a \
          %d-domain host, measured %.2fx"
         host speedup4)

(* ------------------------------------------------------------------ *)

let sections_list =
  [
    ("table1", table1_feasibility);
    ("fig7a", fig7a_vs_baselines);
    ("fig7b", fig7b_tpch);
    ("fig7c", fig7c_iterative);
    ("cache", cache_ablation);
    ("table2", table2_compilation);
    ("table3", table3_incremental);
    ("fig8", fig8_dynamic_tuning);
    ("join", fig8_join_ordering);
    ("table4", table4_cost_heuristics);
    ("fig9", fig9_scalability);
    ("tableE1", table_e1_features);
    ("table5", table5_extensibility);
    ("synth_perf", synth_perf);
    ("spill_perf", spill_perf);
    ("cache_perf", cache_perf);
    ("serve_perf", serve_perf);
  ]

let () =
  let only = ref None and json_path = ref None and trace_path = ref None in
  Arg.parse
    [
      ( "--only",
        Arg.String (fun v -> only := Some (String.split_on_char ',' v)),
        "IDS run only these comma-separated sections" );
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "FILE write section times and synth_perf results" );
      ( "--trace",
        Arg.String (fun p -> trace_path := Some p),
        "FILE write a Chrome trace of the run" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--only IDS] [--json FILE] [--trace FILE]";
  let ids = List.map fst sections_list in
  let selected =
    match !only with
    | None -> sections_list
    | Some names -> (
        match List.filter (fun n -> not (List.mem n ids)) names with
        | [] -> List.filter (fun (n, _) -> List.mem n names) sections_list
        | unknown ->
            Fmt.epr "unknown section id(s): %s@.valid ids: %s@."
              (String.concat ", " unknown)
              (String.concat ", " ids);
            exit 2)
  in
  if !trace_path <> None then bench_obs := Obs.create ();
  let obs = !bench_obs in
  let section_times = ref [] and failed = ref [] in
  let t0 = Obs.wall_clock () in
  List.iter
    (fun (name, f) ->
      let s0 = Obs.wall_clock () in
      Obs.span obs name (fun () ->
          try f ()
          with e ->
            Fmt.pr "!! section %s failed: %s@." name (Printexc.to_string e);
            failed := name :: !failed);
      section_times := (name, Obs.wall_clock () -. s0) :: !section_times)
    selected;
  let total = Obs.wall_clock () -. t0 in
  Fmt.pr "@.total experiment time: %.1fs@." total;
  Option.iter
    (fun path ->
      J.write_file path
        (J.Obj
           [
             ("schema", J.Str "casper-bench/v2");
             ( "sections",
               J.Obj
                 (List.rev_map
                    (fun (n, s) -> (n, J.Float s))
                    !section_times) );
             ("synth", !json_synth);
             ("total_s", J.Float total);
           ]);
      Fmt.pr "wrote %s@." path)
    !json_path;
  Option.iter
    (fun path ->
      Obs.write_trace path obs;
      Fmt.pr "wrote %s@." path)
    !trace_path;
  if !failed <> [] then begin
    Fmt.epr "failed sections: %s@." (String.concat ", " (List.rev !failed));
    exit 1
  end
