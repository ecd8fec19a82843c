(** Tests for the task-level scheduler: fault-free fidelity to the
    closed-form estimate, output equivalence under injected faults,
    graceful degradation, speculation, determinism, and the generic
    coordinator itself. *)

module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Coordinator = Sched.Coordinator
module Faults = Sched.Faults
module Value = Casper_common.Value
module Rng = Casper_common.Rng
module Multiset = Casper_common.Multiset
module Workload = Casper_suites.Workload
module Exec = Casper_exec.Exec

let run_plan ?sched ~cluster ~datasets plan =
  Engine.run_plan
    ~config:{ Testenv.config with Exec.Config.sched }
    ~cluster ~datasets plan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let backends = [ Cluster.spark; Cluster.hadoop; Cluster.flink ]
let scale = 1e5

(* ---------------- Table 1 representative workloads ---------------- *)

let table1 =
  lazy
    (let rng = Rng.create 7 in
     let words =
       Value.as_list (Workload.words rng ~n:2000 ~vocab:200 ~skew:1.0)
     in
     let points =
       Value.as_list
         (Workload.structs rng ~n:1500 (fun rng ->
              Value.Struct
                ( "Point",
                  [
                    ("x", Value.Float (Rng.float_range rng 0.0 10.0));
                    ("y", Value.Float (Rng.float_range rng 0.0 10.0));
                  ] )))
     in
     let pixels = Value.as_list (Workload.pixels rng ~n:1200) in
     let rows =
       Value.as_list
         (Workload.structs rng ~n:1500 (fun rng ->
              Value.Struct
                ("Row", [ ("amount", Value.Float (Rng.float_range rng 0.0 100.0)) ])))
     in
     let log =
       Value.as_list
         (Workload.structs rng ~n:1500 (fun rng ->
              Value.Struct
                ( "Log",
                  [
                    ("page", Value.Str (Rng.word rng ~min_len:3 ~max_len:6));
                    ("views", Value.Int (Rng.int rng 50));
                  ] )))
     in
     let pa =
       Value.as_list (Workload.floats rng ~n:1500 ~lo:0.0 ~hi:50.0)
     in
     [
       ("WordCount", Baselines.Manual.word_count, [ ("words", words) ]);
       ( "StringMatch",
         Baselines.Manual.string_match ~key1:(Value.Str "w0001")
           ~key2:(Value.Str "w0002"),
         [ ("words", words) ] );
       ( "LinearRegression",
         Baselines.Manual.linear_regression,
         [ ("points", points) ] );
       ("3DHistogram", Baselines.Manual.histogram_aggregate, [ ("pixels", pixels) ]);
       ( "WikipediaPageCount",
         Baselines.Manual.wikipedia_pagecount,
         [ ("log", log) ] );
       ( "DatabaseSelect",
         Baselines.Manual.database_select ~threshold:50.0,
         [ ("rows", rows) ] );
       ("AnscombeTransform", Baselines.Manual.anscombe, [ ("pa", pa) ]);
     ])

(* ---------------- generic coordinator ---------------- *)

let synthetic_plan ?(recovery = Faults.Lineage) () =
  {
    Coordinator.workers = 8;
    stages =
      [
        {
          Coordinator.label = "map";
          kind = Sched.Task.Map;
          ntasks = 8;
          task_s = 2.0;
          bytes_out_per_task = 1024;
          recover_s = 1.5;
          barrier_s = 0.5;
        };
        {
          Coordinator.label = "reduce";
          kind = Sched.Task.Reduce;
          ntasks = 8;
          task_s = 3.0;
          bytes_out_per_task = 512;
          recover_s = 2.0;
          barrier_s = 0.5;
        };
      ];
    base_serial_s = 4.0;
    relaunch_s = 0.1;
    detect_s = 0.2;
    recovery;
  }

let test_coordinator_fault_free_exact () =
  let plan = synthetic_plan () in
  let out = Coordinator.run plan in
  let ideal = Coordinator.ideal_completion plan in
  check "completion = ideal" true
    (Float.abs (out.Coordinator.completion_s -. ideal) < 1e-9);
  check_int "one attempt per task" 16 out.Coordinator.attempts;
  check_int "no failures" 0 out.Coordinator.failures;
  check_int "no deaths" 0 out.Coordinator.deaths;
  check_int "no speculation" 0 out.Coordinator.speculated

let test_coordinator_deaths_slow_it_down () =
  let plan = synthetic_plan () in
  let ideal = Coordinator.ideal_completion plan in
  let config = Coordinator.config ~faults:(Faults.failures ~seed:3 0.25) () in
  let out = Coordinator.run ~config plan in
  check_int "two workers died" 2 out.Coordinator.deaths;
  check "failures recorded" true (out.Coordinator.failures > 0);
  check "completion grew" true (out.Coordinator.completion_s > ideal)

let test_coordinator_trace_accounts_tasks () =
  let plan = synthetic_plan () in
  let out = Coordinator.run plan in
  let rows = Sched.Trace.summarize out.Coordinator.trace in
  check_int "two stage rows" 2 (List.length rows);
  List.iter
    (fun (r : Sched.Trace.stage_row) ->
      check_int "all tasks ran" 8 r.Sched.Trace.tasks;
      check_int "no extra attempts" 8 r.Sched.Trace.attempts)
    rows;
  check "render is non-empty" true
    (String.length (Sched.Trace.render out.Coordinator.trace) > 0)

(* ---------------- fault-free fidelity (5% criterion) -------------- *)

let test_fault_free_fidelity () =
  List.iter
    (fun (cluster : Cluster.t) ->
      List.iter
        (fun (name, plan, datasets) ->
          let r = run_plan ~cluster ~datasets plan in
          let analytic = Engine.analytic_time ~cluster ~scale r in
          let out = Engine.schedule ~cluster ~scale r in
          let rel =
            Float.abs (out.Coordinator.completion_s -. analytic) /. analytic
          in
          check
            (Fmt.str "%s/%s within 5%% (rel %.4f)" cluster.Cluster.name name rel)
            true (rel <= 0.05))
        (Lazy.force table1))
    backends

(* ---------------- faulty runs keep the answer ---------------- *)

let faulty_profile seed =
  {
    Faults.none with
    seed;
    failed_fraction = 0.2;
    straggler_fraction = 0.1;
    straggler_slowdown = 6.0;
    lost_partition_prob = 0.05;
  }

let equivalence_test (cluster : Cluster.t) () =
  let _, plan, datasets =
    List.hd (Lazy.force table1) (* WordCount *)
  in
  let baseline = run_plan ~cluster ~datasets plan in
  let sched = Coordinator.config ~faults:(faulty_profile 11) () in
  let r = run_plan ~sched ~cluster ~datasets plan in
  check "output multiset-identical to fault-free" true
    (Multiset.equal_values baseline.Engine.output r.Engine.output);
  let fault_free = Engine.schedule ~cluster ~scale baseline in
  let faulty = Engine.schedule ~cluster ~scale r in
  check "injected deaths" true (faulty.Coordinator.deaths > 0);
  check "failures recorded" true (faulty.Coordinator.failures > 0);
  check "faults cost time" true
    (faulty.Coordinator.completion_s
    >= fault_free.Coordinator.completion_s -. 1e-9);
  (* the scheduled time is what simulate_time now reports *)
  check "simulate_time dispatches to the schedule" true
    (Float.abs
       (Engine.simulate_time ~cluster ~scale r
       -. faulty.Coordinator.completion_s)
    < 1e-9)

let test_degradation_graceful () =
  List.iter
    (fun (cluster : Cluster.t) ->
      let _, plan, datasets = List.hd (Lazy.force table1) in
      let r = run_plan ~cluster ~datasets plan in
      let completion frac =
        let config =
          Coordinator.config ~faults:(Faults.failures ~seed:5 frac) ()
        in
        (Engine.schedule ~cluster ~scale ~config r).Coordinator.completion_s
      in
      let t0 = completion 0.0 and t30 = completion 0.3 in
      check (cluster.Cluster.name ^ ": 30% failures cost time") true (t30 > t0);
      check
        (cluster.Cluster.name ^ ": degradation stays graceful (< 3x)")
        true
        (t30 < 3.0 *. t0))
    backends

let test_speculation_beats_retry_only () =
  List.iter
    (fun (cluster : Cluster.t) ->
      let _, plan, datasets = List.hd (Lazy.force table1) in
      let r = run_plan ~cluster ~datasets plan in
      let faults = Faults.stragglers ~seed:9 ~fraction:0.15 ~slowdown:8.0 () in
      let completion speculation =
        let config = Coordinator.config ~faults ~speculation () in
        (Engine.schedule ~cluster ~scale ~config r).Coordinator.completion_s
      in
      let spec = completion true and retry = completion false in
      check
        (Fmt.str "%s: speculation (%.1fs) beats retry-only (%.1fs)"
           cluster.Cluster.name spec retry)
        true (spec < retry))
    backends

let test_hadoop_degrades_worst () =
  let relative (cluster : Cluster.t) =
    let _, plan, datasets = List.hd (Lazy.force table1) in
    let r = run_plan ~cluster ~datasets plan in
    let completion frac =
      let config = Coordinator.config ~faults:(Faults.failures ~seed:5 frac) () in
      (Engine.schedule ~cluster ~scale ~config r).Coordinator.completion_s
    in
    completion 0.3 /. completion 0.0
  in
  let spark = relative Cluster.spark
  and hadoop = relative Cluster.hadoop
  and flink = relative Cluster.flink in
  check
    (Fmt.str "hadoop (%.2fx) > spark (%.2fx)" hadoop spark)
    true (hadoop > spark);
  check
    (Fmt.str "hadoop (%.2fx) > flink (%.2fx)" hadoop flink)
    true (hadoop > flink)

let test_schedule_deterministic () =
  let cluster = Cluster.spark in
  let _, plan, datasets = List.hd (Lazy.force table1) in
  let r = run_plan ~cluster ~datasets plan in
  let config = Coordinator.config ~faults:(faulty_profile 21) () in
  let a = Engine.schedule ~cluster ~scale ~config r in
  let b = Engine.schedule ~cluster ~scale ~config r in
  check "same completion" true
    (Float.equal a.Coordinator.completion_s b.Coordinator.completion_s);
  check_int "same event count"
    (List.length (Sched.Trace.events a.Coordinator.trace))
    (List.length (Sched.Trace.events b.Coordinator.trace))

(* ---------------- qcheck: random plans, seeds, profiles ----------- *)

(* Random but always well-formed pipelines: segments either work on any
   record shape or normalize it first (map_to_pair). *)
let gen_segments : (Plan.stage list * string) QCheck.Gen.t =
  let open QCheck.Gen in
  let add_i a b = Value.Int (Value.as_int a + Value.as_int b) in
  let segment =
    oneof
      [
        (let* k = 2 -- 6 in
         return
           ( [
               Plan.map_to_pair (fun v ->
                   (Value.Int (Value.size_of v mod k), Value.Int 1));
               Plan.reduce_by_key add_i;
             ],
             Fmt.str "keyed%d" k ));
        return ([ Plan.flat_map (fun v -> [ v; v ]) ], "dup");
        (let* m = 2 -- 4 in
         return
           ( [ Plan.filter (fun v -> Value.size_of v mod m <> 0) ],
             Fmt.str "filter%d" m ));
        return ([ Plan.map (fun v -> Value.Tuple [ v; v ]) ], "widen");
        return ([ Plan.global_reduce (fun a _ -> a) ], "first");
      ]
  in
  let* n = 1 -- 4 in
  let* segs = list_size (return n) segment in
  return (List.concat_map fst segs, String.concat "," (List.map snd segs))

let gen_profile : Faults.profile QCheck.Gen.t =
  let open QCheck.Gen in
  let* seed = 1 -- 1000 in
  let* failed = oneofl [ 0.0; 0.1; 0.3 ] in
  let* straggle = oneofl [ 0.0; 0.2 ] in
  let* lost = oneofl [ 0.0; 0.05 ] in
  return
    {
      Faults.none with
      seed;
      failed_fraction = failed;
      straggler_fraction = straggle;
      straggler_slowdown = 5.0;
      lost_partition_prob = lost;
    }

let gen_case =
  let open QCheck.Gen in
  let* segments, label = gen_segments in
  let* profile = gen_profile in
  let* n = 20 -- 120 in
  let* data_seed = 1 -- 1000 in
  let* backend = oneofl [ `Spark; `Hadoop; `Flink ] in
  return (segments, label, profile, n, data_seed, backend)

let case_arb =
  QCheck.make
    ~print:(fun (_, label, (p : Faults.profile), n, ds, b) ->
      Fmt.str "plan=%s faults={seed=%d f=%.2f s=%.2f l=%.2f} n=%d dseed=%d %s"
        label p.Faults.seed p.Faults.failed_fraction p.Faults.straggler_fraction
        p.Faults.lost_partition_prob n ds
        (match b with `Spark -> "spark" | `Hadoop -> "hadoop" | `Flink -> "flink"))
    gen_case

(* Replaying the same plan with the same fault seed must reproduce the
   run bit-for-bit: not just the completion time and event count, but
   the full event trace and every per-stage metric. *)
let prop_same_seed_identical_trace =
  QCheck.Test.make ~count:40
    ~name:"same seed and fault schedule give identical traces and metrics"
    case_arb
    (fun (segments, _label, profile, n, data_seed, backend) ->
      let cluster =
        match backend with
        | `Spark -> Cluster.spark
        | `Hadoop -> Cluster.hadoop
        | `Flink -> Cluster.flink
      in
      let rng = Rng.create data_seed in
      let datasets =
        [ ("d", List.init n (fun _ -> Value.Int (Rng.int_range rng 0 99))) ]
      in
      let plan = List.fold_left Plan.( |>> ) (Plan.data "d") segments in
      let sched = Coordinator.config ~faults:profile () in
      let r1 = run_plan ~sched ~cluster ~datasets plan in
      let r2 = run_plan ~sched ~cluster ~datasets plan in
      let o1 = Engine.schedule ~cluster ~scale r1 in
      let o2 = Engine.schedule ~cluster ~scale r2 in
      r1.Engine.stages = r2.Engine.stages
      && Multiset.equal_values r1.Engine.output r2.Engine.output
      && Float.equal o1.Coordinator.completion_s o2.Coordinator.completion_s
      && Sched.Trace.events o1.Coordinator.trace
         = Sched.Trace.events o2.Coordinator.trace)

let prop_faulty_schedule_preserves_output =
  QCheck.Test.make ~count:60
    ~name:"scheduled runs (faulty or not) preserve the engine output"
    case_arb
    (fun (segments, _label, profile, n, data_seed, backend) ->
      let cluster =
        match backend with
        | `Spark -> Cluster.spark
        | `Hadoop -> Cluster.hadoop
        | `Flink -> Cluster.flink
      in
      let rng = Rng.create data_seed in
      let datasets =
        [ ("d", List.init n (fun _ -> Value.Int (Rng.int_range rng 0 99))) ]
      in
      let plan =
        List.fold_left Plan.( |>> ) (Plan.data "d") segments
      in
      let baseline = run_plan ~cluster ~datasets plan in
      let sched = Coordinator.config ~faults:profile () in
      let r = run_plan ~sched ~cluster ~datasets plan in
      let fault_free = Engine.schedule ~cluster ~scale baseline in
      let faulty = Engine.schedule ~cluster ~scale r in
      Multiset.equal_values baseline.Engine.output r.Engine.output
      && Float.is_finite faulty.Coordinator.completion_s
      && faulty.Coordinator.completion_s
         >= fault_free.Coordinator.completion_s -. 1e-9)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [
    ( "sched.coordinator",
      [
        Alcotest.test_case "fault-free is exact" `Quick
          test_coordinator_fault_free_exact;
        Alcotest.test_case "deaths slow it down" `Quick
          test_coordinator_deaths_slow_it_down;
        Alcotest.test_case "trace accounts tasks" `Quick
          test_coordinator_trace_accounts_tasks;
      ] );
    ( "sched.engine",
      [
        Alcotest.test_case "fault-free fidelity (Table 1)" `Quick
          test_fault_free_fidelity;
        Alcotest.test_case "equivalence under faults (Spark)" `Quick
          (equivalence_test Cluster.spark);
        Alcotest.test_case "equivalence under faults (Hadoop)" `Quick
          (equivalence_test Cluster.hadoop);
        Alcotest.test_case "equivalence under faults (Flink)" `Quick
          (equivalence_test Cluster.flink);
        Alcotest.test_case "graceful degradation" `Quick
          test_degradation_graceful;
        Alcotest.test_case "speculation beats retry-only" `Quick
          test_speculation_beats_retry_only;
        Alcotest.test_case "hadoop degrades worst" `Quick
          test_hadoop_degrades_worst;
        Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
      ] );
    qsuite "sched.props"
      [ prop_faulty_schedule_preserves_output; prop_same_seed_identical_trace ];
  ]
