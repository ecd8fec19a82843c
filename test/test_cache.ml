(** Tests for the dataset cache: the cross-feature byte-identity
    matrix (cache × spill budget), LRU semantics, identity keys, the
    join argument-plumbing regression, cache-served compiled Iterative
    fragment plans, and golden cache traces. *)

module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine
module Cache = Mapreduce.Cache
module Cluster = Mapreduce.Cluster
module Exec = Casper_exec.Exec
module Value = Casper_common.Value
module Obs = Casper_obs.Obs
module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let vint n = Value.Int n
let ints l = List.map vint l
let kv k v = Value.Tuple [ k; v ]
let add_i a b = vint (Value.as_int a + Value.as_int b)

(* non-commutative, non-associative combiner: serving a cached result
   computed under a different spill budget would diverge immediately if
   the engine were not byte-deterministic *)
let nest a b = Value.Tuple [ a; b ]

let run_cached ?cache ~memory_budget plan datasets =
  Engine.run_plan
    ~config:
      {
        Exec.Config.default with
        Exec.Config.cache;
        memory_budget = Some memory_budget;
      }
    ~cluster:Cluster.spark ~datasets plan

let wc_plan =
  Plan.(
    data "w" |>> map_to_pair (fun w -> (w, vint 1)) |>> reduce_by_key add_i)

let wc_words n =
  let rng = Casper_common.Rng.create 9 in
  Value.as_list (Casper_suites.Workload.words rng ~n ~vocab:60 ~skew:1.0)

(* ---------------- the equivalence matrix ---------------- *)

(* cache {off, budget 1, 4096, unbounded} × memory_budget {in-memory,
   4096}: every point must agree with the uncached in-memory run on
   output AND stage metrics. The plan and dataset values are fixed per case
   and each cache is shared across its whole sub-grid, so later points
   really are served from entries populated by earlier ones (the
   unbounded cache must record hits to prove it). *)

let case_gen =
  QCheck.Gen.(
    triple
      (list_size (int_bound 60) (pair (int_bound 8) small_signed_int))
      (list_size (int_bound 20) (pair (int_bound 8) small_signed_int))
      (int_bound 3))

let case_arb =
  QCheck.make
    ~print:(fun (l1, l2, shape) ->
      Printf.sprintf "shape=%d d=[%s] e=[%s]" shape
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l1))
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l2)))
    case_gen

let mk_plan = function
  | 0 -> Plan.(data "d" |>> reduce_by_key nest)
  | 1 -> Plan.(data "d" |>> group_by_key ())
  | 2 ->
      Plan.(
        data "d"
        |>> map_values (fun v -> add_i v (vint 1))
        |>> reduce_by_key add_i)
  | _ -> Plan.(data "d" |>> join_with Plan.(data "e" |>> reduce_by_key add_i))

let prop_cache_matrix =
  QCheck.Test.make
    ~name:"cached runs are byte-identical across the full grid" ~count:25
    case_arb (fun (l1, l2, shape) ->
      let mk l = List.map (fun (k, v) -> kv (vint k) (vint v)) l in
      let datasets = [ ("d", mk l1); ("e", mk l2) ] in
      let plan = mk_plan shape in
      let base = run_cached ~memory_budget:0 plan datasets in
      let tiny = Engine.make_cache ~budget:1 () in
      let mid = Engine.make_cache ~budget:4096 () in
      let unbounded = Engine.make_cache () in
      let ok =
        List.for_all
          (fun cache ->
            List.for_all
              (fun memory_budget ->
                (* each point twice, so the second run of a cached
                   point can be served from the first *)
                List.for_all
                  (fun _ ->
                    let r = run_cached ?cache ~memory_budget plan datasets in
                    r.Engine.output = base.Engine.output
                    && r.Engine.stages = base.Engine.stages)
                  [ 1; 2 ])
              [ 0; 4096 ])
          [ None; Some tiny; Some mid; Some unbounded ]
      in
      (* 4 runs over 2 lineage keys (the two spill budgets): the
         unbounded sub-grid must have been served from cache *)
      ok && (Engine.cache_stats unbounded).Cache.hits > 0)

(* ---------------- cache unit semantics ---------------- *)

(* keys for distinct single-source plans; each key value is reused so
   identity (dataset physical equality) is preserved across calls *)
let mk_key name =
  Cache.key ~cluster:Cluster.spark ~budget:None
    ~datasets:[ (name, ints [ 1 ]) ]
    (Plan.data name)

let test_lru_order () =
  let c : int Cache.t = Cache.create ~budget:100 () in
  let ka = mk_key "a" and kb = mk_key "b" and kc = mk_key "c" in
  check_int "put a" 0 (Cache.put c ka ~bytes:40 1);
  check_int "put b" 0 (Cache.put c kb ~bytes:40 2);
  (* touching a makes b the least recently used entry *)
  check "touch a" true (Cache.find c ka = Some 1);
  check_int "put c evicts exactly one" 1 (Cache.put c kc ~bytes:40 3);
  check "a survived (recently used)" true (Cache.find c ka = Some 1);
  check "b evicted (LRU)" true (Cache.find c kb = None);
  check "c resident" true (Cache.find c kc = Some 3);
  check_int "live bytes" 80 (Cache.stats c).Cache.bytes;
  check_int "evictions counted" 1 (Cache.stats c).Cache.evictions

let test_budget_one_degenerates () =
  let c : int Cache.t = Cache.create ~budget:1 () in
  let ka = mk_key "a" in
  check_int "insert immediately evicts itself" 1 (Cache.put c ka ~bytes:40 1);
  check "nothing resident" true (Cache.find c ka = None)

(* a key is the plan object's identity: two plans built alike from the
   very same stage values are two lineages, while one plan object run
   again over the same dataset list is served *)
let test_plans_keyed_by_identity () =
  let stage = Plan.map_to_pair (fun w -> (w, vint 1)) in
  let reduce = Plan.reduce_by_key add_i in
  let build () = Plan.(data "w" |>> stage |>> reduce) in
  let p1 = build () and p2 = build () in
  let datasets = [ ("w", wc_words 100) ] in
  let cache = Engine.make_cache () in
  let run plan =
    Engine.run_plan
      ~config:{ Exec.Config.default with Exec.Config.cache = Some cache }
      ~cluster:Cluster.spark ~datasets plan
  in
  let r1 = run p1 in
  let r2 = run p2 in
  check_int "a plan built alike shares no entry" 0
    (Engine.cache_stats cache).Cache.hits;
  check_int "each object has its own entry" 2
    (Engine.cache_stats cache).Cache.insertions;
  let r3 = run p1 in
  check_int "the same plan object is served" 1
    (Engine.cache_stats cache).Cache.hits;
  check "served run is byte-identical" true
    (r1.Engine.output = r2.Engine.output
    && r3.Engine.output = r1.Engine.output
    && r3.Engine.stages = r1.Engine.stages)

(* ---------------- engine integration ---------------- *)

let test_plan_sources () =
  check "join sources" true (Plan.sources (mk_plan 3) = [ "d"; "e" ])

(* the regression the config threading exists for: a recursive
   (join-side) execution must see the same optional arguments as the
   top-level call — had the cache been dropped on the join branch, the
   join side would never populate and the standalone run below would
   miss *)
let test_join_threads_cache () =
  let right = Plan.(data "e" |>> reduce_by_key add_i) in
  let plan = Plan.(data "d" |>> join_with right) in
  let datasets =
    [
      ("d", [ kv (vint 1) (vint 10); kv (vint 2) (vint 20) ]);
      ("e", [ kv (vint 1) (vint 5); kv (vint 1) (vint 6) ]);
    ]
  in
  let cache = Engine.make_cache () in
  let uncached = { Testenv.config with Exec.Config.cache = None } in
  let config = { uncached with Exec.Config.cache = Some cache } in
  let r = Engine.run_plan ~config ~cluster:Cluster.spark ~datasets plan in
  let s1 = Engine.cache_stats cache in
  check_int "join populated outer AND join-side entries" 2
    s1.Cache.insertions;
  (* the standalone join-side run is served from the entry the nested
     execution populated *)
  let rr = Engine.run_plan ~config ~cluster:Cluster.spark ~datasets right in
  let s2 = Engine.cache_stats cache in
  check_int "standalone join-side run hits" (s1.Cache.hits + 1)
    s2.Cache.hits;
  let rbase =
    Engine.run_plan ~config:uncached ~cluster:Cluster.spark ~datasets right
  in
  check "served output byte-identical" true
    (rr.Engine.output = rbase.Engine.output);
  (* and a repeated outer run is served whole *)
  let r2 = Engine.run_plan ~config ~cluster:Cluster.spark ~datasets plan in
  check "whole-plan hit is byte-identical" true
    (r2.Engine.output = r.Engine.output && r2.Engine.stages = r.Engine.stages)

(* The Fig 7c driver loops re-run each compiled Iterative fragment plan
   over the same datasets: with one cache, every run after the first is
   served from it (one miss, then hits) and reads exactly as the
   uncached run, outputs and stage accounting alike *)
let test_iterative_fragments_served () =
  let config = { Cegis.default_config with Cegis.max_candidates = 60_000 } in
  let runs = 4 in
  let served = ref 0 in
  List.iter
    (fun name ->
      let b = Casper_suites.Registry.find_benchmark name in
      let report =
        Casper.translate_source ~config ~suite:b.Casper_suites.Suite.suite
          ~benchmark:b.Casper_suites.Suite.name b.Casper_suites.Suite.source
      in
      let prog = report.Casper.program in
      let env =
        b.Casper_suites.Suite.workload.Casper_suites.Suite.gen
          (Casper_common.Rng.create 2024) ~n:300
      in
      List.iter
        (fun (t : Casper.translation) ->
          match t.Casper.survivors with
          | [] -> ()
          | best :: _ ->
              let frag = t.Casper.frag in
              let id = frag.Casper_analysis.Fragment.frag_id in
              let entry = Casper_vcgen.Vc.entry_of_params prog frag env in
              let plan =
                (Casper_codegen.Compile.compile prog frag entry
                   best.Cegis.summary)
                  .Casper_codegen.Compile.plan
              in
              let datasets =
                Casper_codegen.Runner.datasets_of prog frag entry
              in
              let run cache =
                Engine.run_plan
                  ~config:{ Exec.Config.default with Exec.Config.cache }
                  ~cluster:Cluster.spark ~datasets plan
              in
              let cold = run None in
              let cache = Engine.make_cache () in
              for i = 1 to runs do
                let r = run (Some cache) in
                check (Fmt.str "%s run %d output" id i) true
                  (r.Engine.output = cold.Engine.output);
                check (Fmt.str "%s run %d stages" id i) true
                  (r.Engine.stages = cold.Engine.stages)
              done;
              let s = Engine.cache_stats cache in
              check_int (id ^ " misses") 1 s.Cache.misses;
              check_int (id ^ " hits") (runs - 1) s.Cache.hits;
              incr served)
        report.Casper.translations)
    [ "PageRank"; "LogisticRegression" ];
  check_int "Iterative fragments driven" 7 !served

(* ---------------- golden cache traces ---------------- *)

(* shapes are defined at the in-memory spill path (see test_obs.ml) *)

let cached cache obs =
  { Exec.Config.default with Exec.Config.cache = Some cache; obs }

let test_golden_cache_hit_trace () =
  let datasets = [ ("w", wc_words 120) ] in
  let cache = Engine.make_cache () in
  ignore
    (Engine.run_plan ~config:(cached cache None) ~cluster:Cluster.spark
       ~datasets wc_plan
      : Engine.run);
  let obs = Obs.create ~clock:(Obs.virtual_clock ~seed:5 ()) () in
  ignore
    (Engine.run_plan ~config:(cached cache (Some obs)) ~cluster:Cluster.spark
       ~datasets wc_plan
      : Engine.run);
  check "well formed" true (Obs.well_formed obs);
  check_str "cache-hit trace shape"
    "engine.run_plan\n  engine.cache[cache_hits]\n" (Obs.shape obs)

let test_golden_cache_evict_trace () =
  let datasets = [ ("w", wc_words 120) ] in
  (* budget 1: the insert immediately evicts its own entry *)
  let cache = Engine.make_cache ~budget:1 () in
  let obs = Obs.create ~clock:(Obs.virtual_clock ~seed:5 ()) () in
  ignore
    (Engine.run_plan ~config:(cached cache (Some obs)) ~cluster:Cluster.spark
       ~datasets wc_plan
      : Engine.run);
  check "well formed" true (Obs.well_formed obs);
  check_str "cache-evict trace shape"
    "engine.run_plan\n\
    \  mapToPair[records_out]\n\
    \  reduceByKey[records_out,shuffle_bytes,shuffle_records]\n\
    \  engine.cache[cache_bytes,cache_evictions,cache_misses]\n"
    (Obs.shape obs)

(* regression pin: with the cache disabled the trace is byte-identical
   to the pre-cache golden *)
let test_cache_disabled_golden () =
  let datasets = [ ("w", wc_words 120) ] in
  let obs = Obs.create ~clock:(Obs.virtual_clock ~seed:5 ()) () in
  ignore
    (Engine.run_plan
       ~config:{ Exec.Config.default with Exec.Config.obs = Some obs }
       ~cluster:Cluster.spark ~datasets wc_plan
      : Engine.run);
  check_str "cache-disabled golden"
    "engine.run_plan\n\
    \  mapToPair[records_out]\n\
    \  reduceByKey[records_out,shuffle_bytes,shuffle_records]\n"
    (Obs.shape obs)

let suite =
  [
    ( "cache.matrix",
      [ Testenv.qcheck prop_cache_matrix ] );
    ( "cache.unit",
      [
        Alcotest.test_case "LRU eviction order" `Quick test_lru_order;
        Alcotest.test_case "plans are keyed by identity" `Quick
          test_plans_keyed_by_identity;
        Alcotest.test_case "budget 1 degenerates to pass-through" `Quick
          test_budget_one_degenerates;
      ] );
    ( "cache.engine",
      [
        Alcotest.test_case "plan sources" `Quick test_plan_sources;
        Alcotest.test_case "join threads the cache" `Quick
          test_join_threads_cache;
        Alcotest.test_case "Iterative fragment plans are served" `Slow
          test_iterative_fragments_served;
      ] );
    ( "cache.obs",
      [
        Alcotest.test_case "golden cache-hit trace" `Quick
          test_golden_cache_hit_trace;
        Alcotest.test_case "golden cache-evict trace" `Quick
          test_golden_cache_evict_trace;
        Alcotest.test_case "cache-disabled golden unchanged" `Quick
          test_cache_disabled_golden;
      ] );
  ]
