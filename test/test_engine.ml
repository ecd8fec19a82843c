(** Tests for the MapReduce engine: stage semantics, metrics accounting,
    combiner behaviour, the join, and the wall-clock model. *)

module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Exec = Casper_exec.Exec
module Value = Casper_common.Value
module Obs = Casper_obs.Obs
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let vint n = Value.Int n
let ints l = List.map vint l
let add_i a b = vint (Value.as_int a + Value.as_int b)
let run ?(cluster = Cluster.spark) ?(datasets = []) plan =
  Engine.run_plan ~config:Testenv.config ~cluster ~datasets plan

let kv k v = Value.Tuple [ k; v ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_flat_map () =
  let p = Plan.(data "d" |>> flat_map (fun x -> [ x; x ])) in
  let r = run ~datasets:[ ("d", ints [ 1; 2 ]) ] p in
  check_int "doubles records" 4 (List.length r.Engine.output)

let test_filter_map_values () =
  let p =
    Plan.(
      data "d"
      |>> filter (fun x -> Value.as_int x > 1)
      |>> map_to_pair (fun x -> (x, x))
      |>> map_values (fun v -> add_i v (vint 10)))
  in
  let r = run ~datasets:[ ("d", ints [ 1; 2; 3 ]) ] p in
  check "values shifted" true
    (Casper_common.Multiset.equal_values r.Engine.output
       [ kv (vint 2) (vint 12); kv (vint 3) (vint 13) ])

let test_reduce_by_key_result () =
  let p =
    Plan.(
      data "d"
      |>> map_to_pair (fun x -> (vint (Value.as_int x mod 2), x))
      |>> reduce_by_key add_i)
  in
  let r = run ~datasets:[ ("d", ints [ 1; 2; 3; 4 ]) ] p in
  check "parity sums" true
    (Casper_common.Multiset.equal_values r.Engine.output
       [ kv (vint 0) (vint 6); kv (vint 1) (vint 4) ])

let test_combiner_does_not_change_result () =
  let p ca =
    Plan.(
      data "d"
      |>> map_to_pair (fun x -> (vint (Value.as_int x mod 3), x))
      |>> reduce_by_key ~comm_assoc:ca add_i)
  in
  (* enough records that every partition holds several per key *)
  let d = ints (List.init 2000 (fun i -> i)) in
  let r1 = run ~datasets:[ ("d", d) ] (p true) in
  let r2 = run ~datasets:[ ("d", d) ] (p false) in
  check "same output" true
    (Casper_common.Multiset.equal_values r1.Engine.output r2.Engine.output);
  check "combiner shuffles less" true
    (Engine.total_shuffled r1 < Engine.total_shuffled r2)

let test_group_by_key () =
  let p =
    Plan.(
      data "d" |>> map_to_pair (fun x -> (vint 0, x)) |>> group_by_key ())
  in
  let r = run ~datasets:[ ("d", ints [ 1; 2 ]) ] p in
  match r.Engine.output with
  | [ Value.Tuple [ _; Value.List vs ] ] -> check_int "grouped" 2 (List.length vs)
  | _ -> Alcotest.fail "expected one group"

let test_global_reduce () =
  let p = Plan.(data "d" |>> global_reduce add_i) in
  let r = run ~datasets:[ ("d", ints [ 5; 6 ]) ] p in
  check "total" true (r.Engine.output = [ vint 11 ]);
  let empty = run ~datasets:[ ("d", []) ] p in
  check "empty input" true (empty.Engine.output = [])

let test_join () =
  let left = Plan.(data "a" |>> map_to_pair (fun x -> (x, x))) in
  let right = Plan.(data "b" |>> map_to_pair (fun x -> (x, add_i x (vint 10)))) in
  let p = Plan.(left |>> join_with right) in
  let r =
    run ~datasets:[ ("a", ints [ 1; 2 ]); ("b", ints [ 2; 3 ]) ] p
  in
  check "one match on key 2" true
    (Casper_common.Multiset.equal_values r.Engine.output
       [ kv (vint 2) (Value.Tuple [ vint 2; vint 12 ]) ]);
  (* the right side's stage metrics are accounted *)
  check "nested metrics present" true (List.length r.Engine.stages >= 2)

let test_metrics_bytes () =
  let p = Plan.(data "d" |>> map (fun x -> x)) in
  let r = run ~datasets:[ ("d", ints [ 1; 2; 3 ]) ] p in
  check_int "input records" 3 r.Engine.input_records;
  check "bytes positive" true (r.Engine.input_bytes > 0);
  let m = List.hd r.Engine.stages in
  check_int "bytes in = out for identity" m.Engine.bytes_in m.Engine.bytes_out

let test_unknown_dataset () =
  match run Plan.(data "nope") with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected engine error"

let test_duplicate_dataset () =
  let p = Plan.(data "d") in
  match run ~datasets:[ ("d", ints [ 1 ]); ("d", ints [ 2 ]) ] p with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected engine error on duplicate dataset name"

(* the guard is a single hash pass, so a plan binding many distinct
   datasets resolves fine and a duplicate buried deep in the list is
   still caught *)
let test_many_datasets () =
  let many n =
    List.init n (fun i -> (Printf.sprintf "d%d" i, ints [ i ]))
  in
  let p = Plan.(data "d1234") in
  let r = run ~datasets:(many 5000) p in
  check "deep dataset resolves" true (r.Engine.output = ints [ 1234 ]);
  match run ~datasets:(many 5000 @ [ ("d4999", ints [ 0 ]) ]) p with
  | exception Engine.Engine_error msg ->
      check "error names the duplicate" true (contains msg "d4999")
  | _ -> Alcotest.fail "expected engine error on deep duplicate"

let test_shuffle_without_workers () =
  let p =
    Plan.(data "d" |>> map_to_pair (fun x -> (x, x)) |>> reduce_by_key add_i)
  in
  let cluster = { Cluster.spark with Cluster.workers = 0 } in
  match run ~cluster ~datasets:[ ("d", ints [ 1; 2; 3 ]) ] p with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected engine error on zero-worker shuffle"

(* ---------------- combined shuffles ---------------- *)

(* One combiner rule: a CA reduction, keyed or global, ships exactly its
   combined output — one record per key, even for hot keys — so shuffled
   bytes equal the combined output's bytes. *)
let test_combined_ships_output () =
  let d = ints (List.init 3000 (fun i -> i)) in
  List.iter
    (fun (name, p) ->
      let r = run ~datasets:[ ("d", d) ] p in
      let m = List.find (fun m -> m.Engine.is_shuffle) r.Engine.stages in
      check_int
        ("one combined record per key crosses the network: " ^ name)
        m.Engine.bytes_out m.Engine.bytes_shuffled)
    [
      ( "reduceByKey",
        Plan.(
          data "d"
          |>> map_to_pair (fun x -> (vint (Value.as_int x mod 3), x))
          |>> reduce_by_key add_i) );
      ("global reduce", Plan.(data "d" |>> global_reduce add_i));
    ]

let test_keyed_partitioning_deterministic () =
  let p =
    Plan.(
      data "d"
      |>> map_to_pair (fun x -> (x, vint 1))
      |>> reduce_by_key add_i)
  in
  let d = ints (List.init 500 (fun i -> i mod 40)) in
  let r1 = run ~datasets:[ ("d", d) ] p in
  let r2 = run ~datasets:[ ("d", d) ] p in
  check "same outputs" true
    (Casper_common.Multiset.equal_values r1.Engine.output r2.Engine.output);
  List.iter2
    (fun (a : Engine.stage_metrics) (b : Engine.stage_metrics) ->
      check_int "same shuffle volume" a.Engine.bytes_shuffled
        b.Engine.bytes_shuffled)
    r1.Engine.stages r2.Engine.stages

(* the raw counter and the nominal figure rank two plans of one sum
   alike: a global [+] ships one combined Int, a one-key reduceByKey one
   combined key-value pair, at sample scale and at nominal scale *)
let test_raw_and_nominal_rank_alike () =
  let d = ints (List.init 3000 (fun i -> i)) in
  let global =
    run ~datasets:[ ("d", d) ] Plan.(data "d" |>> global_reduce add_i)
  and keyed =
    run ~datasets:[ ("d", d) ]
      Plan.(
        data "d"
        |>> map_to_pair (fun x -> (Value.Str "total", x))
        |>> reduce_by_key add_i)
  in
  let nominal r =
    Engine.effective_shuffled ~cluster:Cluster.spark ~scale:1e6 r
  in
  check "nominal: the global reduce ships less" true
    (nominal global < nominal keyed);
  check "raw: the global reduce ships less" true
    (Engine.total_shuffled global < Engine.total_shuffled keyed)

(* ---------------- out-of-core shuffle ---------------- *)

(* The spill path's contract: at ANY budget the outputs and the stage
   metrics are byte-identical to the in-memory grouping — the runs on
   disk hold raw values per key in arrival order, so the merge replays
   exactly the same left folds. Every run sets its budget explicitly
   ([0] is the in-memory path), so CASPER_MEM_BUDGET cannot move these
   tests; CASPER_CACHE_BUDGET reaches the untraced runs. *)

let run_spill ?obs ~memory_budget plan datasets =
  let env =
    match obs with Some o -> Testenv.traced o | None -> Testenv.config
  in
  Engine.run_plan
    ~config:{ env with Exec.Config.memory_budget = Some memory_budget }
    ~cluster:Cluster.spark ~datasets plan

(* non-commutative, non-associative combiner: merging partial folds
   instead of replaying arrival order would show up immediately *)
let nest a b = Value.Tuple [ a; b ]

let spill_case_gen =
  QCheck.Gen.(
    pair
      (list_size (int_bound 60) (pair (int_bound 8) small_signed_int))
      bool)

let spill_case_arb =
  QCheck.make
    ~print:(fun (l, g) ->
      Printf.sprintf "groupByKey=%b %s" g
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)))
    spill_case_gen

(* budget {unbounded, 4096, 1 byte}: every point must agree with the
   in-memory run on output AND metrics *)
let prop_spill_matrix =
  QCheck.Test.make ~name:"spilled runs are byte-identical everywhere"
    ~count:30 spill_case_arb (fun (l, use_group) ->
      let datasets =
        [ ("d", List.map (fun (k, v) -> kv (vint k) (vint v)) l) ]
      in
      let p =
        if use_group then Plan.(data "d" |>> group_by_key ())
        else Plan.(data "d" |>> reduce_by_key nest)
      in
      let base = run_spill ~memory_budget:0 p datasets in
      List.for_all
        (fun memory_budget ->
          let r = run_spill ~memory_budget p datasets in
          r.Engine.output = base.Engine.output
          && r.Engine.stages = base.Engine.stages)
        [ 0; 4096; 1 ])

let wc_plan =
  Plan.(
    data "w" |>> map_to_pair (fun w -> (w, vint 1)) |>> reduce_by_key add_i)

let wc_words n =
  let rng = Casper_common.Rng.create 9 in
  Value.as_list (Casper_suites.Workload.words rng ~n ~vocab:60 ~skew:1.0)

let test_spill_identity_and_counters () =
  let datasets = [ ("w", wc_words 800) ] in
  let base = run_spill ~memory_budget:0 wc_plan datasets in
  let obs = Obs.create () in
  let r = run_spill ~obs ~memory_budget:256 wc_plan datasets in
  check "spilled output identical" true (r.Engine.output = base.Engine.output);
  check "spilled metrics identical" true (r.Engine.stages = base.Engine.stages);
  check "runs were written" true (Obs.total obs "spill_runs" > 0);
  check "bytes were spilled" true (Obs.total obs "spill_bytes" > 0);
  check "merge fan-in recorded" true (Obs.total obs "spill_merge_fanin" > 1)

(* an explicit [Some 0] forces the in-memory path over a budget the
   config carried (as one from [of_env] would), and an absent budget is
   the in-memory built-in: nothing sits between the field and it *)
let test_spill_explicit_zero_wins () =
  let datasets = [ ("w", wc_words 300) ] in
  let spilled =
    { Exec.Config.default with Exec.Config.memory_budget = Some 64 }
  in
  let spill_runs config =
    let obs = Obs.create () in
    let r =
      Engine.run_plan
        ~config:{ config with Exec.Config.obs = Some obs }
        ~cluster:Cluster.spark ~datasets wc_plan
    in
    (r.Engine.output, Obs.total obs "spill_runs")
  in
  let out64, runs64 = spill_runs spilled in
  let out0, runs0 =
    spill_runs { spilled with Exec.Config.memory_budget = Some 0 }
  in
  let out_none, runs_none = spill_runs Exec.Config.default in
  check "a positive budget spills" true (runs64 > 0);
  check "explicit 0 forces the in-memory path" true (runs0 = 0);
  check "absent budget is in-memory" true (runs_none = 0);
  check "same output every way" true (out0 = out64 && out_none = out64)

(* a 1-byte budget spills every record as its own run, so 400 words
   write far more runs than the 64-run fan-in cap: the merge must see
   at most 64 compacted runs plus the in-memory tail *)
let test_spill_compaction () =
  let datasets = [ ("w", wc_words 400) ] in
  let base = run_spill ~memory_budget:0 wc_plan datasets in
  let obs = Obs.create () in
  let r = run_spill ~obs ~memory_budget:1 wc_plan datasets in
  check "far more runs than the fan-in cap" true
    (Obs.total obs "spill_runs" > 64);
  check "merge stayed under the cap" true
    (Obs.total obs "spill_merge_fanin" <= 65);
  check "compacted output identical" true (r.Engine.output = base.Engine.output);
  check "compacted metrics identical" true (r.Engine.stages = base.Engine.stages)

(* a run file that disappears before the merge reopens it is a spill
   error, not a silent loss of its records *)
let test_spill_missing_run () =
  let module Spill = Mapreduce.Spill in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casper-spill-missing-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let g = Spill.create ~dir ~budget:1 ~label:"missing" () in
  Fun.protect ~finally:(fun () -> Spill.cleanup g) @@ fun () ->
  List.iter (fun i -> Spill.add g (vint i) (vint i)) [ 1; 2 ];
  check_int "both records spilled" 2 (Spill.stats g).Spill.runs_written;
  Array.iter
    (fun sub ->
      let sub = Filename.concat dir sub in
      Array.iter (fun f -> Sys.remove (Filename.concat sub f)) (Sys.readdir sub))
    (Sys.readdir dir);
  match
    Spill.finish g ~init:Fun.id ~step:(fun _ _ -> ()) ~record:(fun _ v -> v)
      ~emit:ignore
  with
  | exception Spill.Spill_error m ->
      check "names the failed open" true (String.starts_with ~prefix:"open " m)
  | () -> Alcotest.fail "expected a spill error for the missing run"

(* [f dir] with [dir] a fresh empty directory, removed afterwards *)
let with_temp_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casper-%s-%d" name (Unix.getpid ()))
  in
  let clear () =
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir)
  in
  if Sys.file_exists dir then clear () else Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      clear ();
      Sys.rmdir dir)
    (fun () -> f dir)

(* no temp file survives a failing λ under a spill budget: neither a
   reduce function that throws mid-merge nor a map function that throws
   midway through the pass that feeds the spill grouper — the sweep runs
   on every exit path, including the error one *)
let test_spill_cleanup_on_failure () =
  with_temp_dir "spill-test" @@ fun dir ->
  let pair x = (vint (Value.as_int x mod 3), x) in
  List.iter
    (fun (lm, lr, expected) ->
      let p = Plan.(data "d" |>> map_to_pair lm |>> reduce_by_key lr) in
      let datasets = [ ("d", ints (List.init 200 (fun i -> i))) ] in
      (match
         Engine.run_plan
           ~config:
             {
               Testenv.config with
               Exec.Config.memory_budget = Some 1;
               spill_dir = Some dir;
             }
           ~cluster:Cluster.spark ~datasets p
       with
      | exception Failure m ->
          Alcotest.(check string) "the λ's error" expected m
      | _ -> Alcotest.failf "expected %S" expected);
      check_int ("no temp files survive: " ^ expected) 0
        (Array.length (Sys.readdir dir)))
    [
      (pair, (fun _ _ -> failwith "reduce exploded"), "reduce exploded");
      ( (fun x ->
          if Value.as_int x = 100 then failwith "map exploded" else pair x),
        add_i,
        "map exploded" );
    ]

let test_spill_join_passthrough () =
  let left = Plan.(data "a" |>> map_to_pair (fun x -> (x, x))) in
  let right =
    Plan.(
      data "b"
      |>> map_to_pair (fun x -> (vint (Value.as_int x mod 5), x))
      |>> reduce_by_key add_i)
  in
  let p = Plan.(left |>> join_with right) in
  let datasets =
    [ ("a", ints [ 0; 1; 2; 3; 4 ]); ("b", ints (List.init 100 (fun i -> i))) ]
  in
  let base =
    Engine.run_plan
      ~config:{ Testenv.config with Exec.Config.memory_budget = Some 0 }
      ~cluster:Cluster.spark ~datasets p
  in
  let obs = Obs.create () in
  let r =
    Engine.run_plan
      ~config:{ (Testenv.traced obs) with Exec.Config.memory_budget = Some 16 }
      ~cluster:Cluster.spark ~datasets p
  in
  check "the nested right-side shuffle spilled" true
    (Obs.total obs "spill_runs" > 0);
  check "join output identical" true (r.Engine.output = base.Engine.output);
  check "join metrics identical" true (r.Engine.stages = base.Engine.stages)

(* ---------------- settings that travel in the config ---------------- *)

(* [spill_dir] must exist: a missing one is a clean engine error naming
   the path, and nothing is created under it *)
let test_missing_spill_dir () =
  let missing =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casper-missing-%d" (Unix.getpid ()))
  in
  check "precondition: the directory is missing" false
    (Sys.file_exists missing);
  let p =
    Plan.(data "d" |>> map_to_pair (fun x -> (x, x)) |>> reduce_by_key add_i)
  in
  (match
     Engine.run_plan
       ~config:
         {
           Exec.Config.default with
           Exec.Config.memory_budget = Some 1;
           spill_dir = Some missing;
         }
       ~cluster:Cluster.spark
       ~datasets:[ ("d", ints (List.init 50 Fun.id)) ]
       p
   with
  | exception Engine.Engine_error msg ->
      check "error names the directory" true (contains msg missing)
  | _ -> Alcotest.fail "expected an engine error for a missing spill_dir");
  check "nothing created" false (Sys.file_exists missing)

(* ---------------- cancellation ---------------- *)

(* the cancellation token is polled inside a stage's record loop, not
   only between stages: a token that turns true once λm has seen 1,000
   of 20,000 records stops the run before λm sees 5,000 — in a map
   alone, in a map fused with each kind of shuffle, in memory and under
   a spill budget, leaving no temp file behind *)
let test_cancel_inside_a_stage () =
  with_temp_dir "cancel-test" @@ fun dir ->
  let datasets = [ ("d", ints (List.init 20_000 Fun.id)) ] in
  List.iter
    (fun (name, shuffle) ->
      List.iter
        (fun memory_budget ->
          let seen = ref 0 in
          let lm x =
            incr seen;
            (vint (Value.as_int x mod 7), x)
          in
          let p =
            List.fold_left Plan.( |>> ) Plan.(data "d" |>> map_to_pair lm)
              shuffle
          in
          let config =
            {
              Exec.Config.default with
              Exec.Config.memory_budget;
              spill_dir = Some dir;
              cancel = Some (fun () -> !seen >= 1_000);
            }
          in
          (match Engine.run_plan ~config ~cluster:Cluster.spark ~datasets p with
          | exception Engine.Cancelled -> ()
          | _ -> Alcotest.failf "%s ran to the end" name);
          check (name ^ ": stopped early") true (!seen < 5_000);
          check_int (name ^ ": no temp file") 0
            (Array.length (Sys.readdir dir)))
        [ None; Some 64 ])
    [
      ("map", []);
      ("map |> reduceByKey", [ Plan.reduce_by_key add_i ]);
      ("map |> groupByKey", [ Plan.group_by_key () ]);
      ("map |> reduce", [ Plan.global_reduce (fun a _ -> a) ]);
    ]

(* ---------------- time model ---------------- *)

let wc_run n =
  let rng = Casper_common.Rng.create 1 in
  let words =
    Value.as_list (Casper_suites.Workload.words rng ~n ~vocab:50 ~skew:1.0)
  in
  let p =
    Plan.(
      data "w" |>> map_to_pair (fun w -> (w, vint 1)) |>> reduce_by_key add_i)
  in
  run ~datasets:[ ("w", words) ] p

let test_time_monotone_in_scale () =
  let r = wc_run 500 in
  let t1 = Engine.simulate_time ~cluster:Cluster.spark ~scale:1e3 r in
  let t2 = Engine.simulate_time ~cluster:Cluster.spark ~scale:1e5 r in
  check "more data, more time" true (t2 > t1)

let test_framework_ordering () =
  let r = wc_run 500 in
  let t c = Engine.simulate_time ~cluster:c ~scale:1e5 r in
  check "spark fastest" true (t Cluster.spark < t Cluster.flink);
  check "hadoop slowest" true (t Cluster.flink < t Cluster.hadoop)

let test_sequential_time_linear () =
  let t1 = Engine.sequential_time ~scale:1.0 ~records:1000 ~bytes:10000 () in
  let t2 = Engine.sequential_time ~scale:2.0 ~records:1000 ~bytes:10000 () in
  check "scales linearly" true (Float.abs ((t2 /. t1) -. 2.0) < 1e-6);
  let t3 = Engine.sequential_time ~scale:1.0 ~passes:3 ~records:1000 ~bytes:10000 () in
  check "passes multiply" true (Float.abs ((t3 /. t1) -. 3.0) < 1e-6)

let test_combiner_cap_effect () =
  (* the effective shuffle volume of a combined reduction must not blow
     up with scale the way the raw sample volume does *)
  let r = wc_run 2000 in
  let eff =
    Engine.effective_shuffled ~cluster:Cluster.spark ~scale:1e6 r
  in
  let linear = float_of_int (Engine.total_shuffled r) *. 1e6 in
  check "cap engaged at large scale" true (eff < linear /. 10.0)

let test_speedup_grows_with_scale () =
  let r = wc_run 500 in
  let speedup scale =
    Engine.sequential_time ~scale ~records:500 ~bytes:r.Engine.input_bytes ()
    /. Engine.simulate_time ~cluster:Cluster.spark ~scale r
  in
  check "Fig 9 shape: speedup grows" true (speedup 1e6 > speedup 1e4)

(* Keys that print alike — 1234567.0 and 1234568.0 under %g, Int 7
   and Float 7.0 — are different values: every keyed shuffle and the
   join keep them apart, in memory and through the spill grouper, and
   grouped output comes in ascending [Value.compare] order *)
let test_keys_by_value () =
  let f x = Value.Float x in
  let keys = [ f 1234567.0; f 1234568.0; vint 7; f 7.0; f 1234567.0; vint 7 ] in
  let datasets =
    [
      ("d", List.mapi (fun i k -> kv k (vint i)) keys);
      ("r", [ kv (f 1234567.0) (Value.Str "a"); kv (vint 7) (Value.Str "b") ]);
    ]
  in
  List.iter
    (fun memory_budget ->
      let out plan = (run_spill ~memory_budget plan datasets).Engine.output in
      let tag s = Printf.sprintf "budget %d: %s" memory_budget s in
      check (tag "reduceByKey") true
        (out Plan.(data "d" |>> reduce_by_key add_i)
        = [ kv (vint 7) (vint 7); kv (f 7.0) (vint 3);
            kv (f 1234567.0) (vint 4); kv (f 1234568.0) (vint 1) ]);
      check (tag "groupByKey") true
        (out Plan.(data "d" |>> group_by_key ())
        = [ kv (vint 7) (Value.List (ints [ 2; 5 ]));
            kv (f 7.0) (Value.List (ints [ 3 ]));
            kv (f 1234567.0) (Value.List (ints [ 0; 4 ]));
            kv (f 1234568.0) (Value.List (ints [ 1 ])) ]);
      check (tag "join") true
        (out Plan.(data "d" |>> join_with (data "r"))
        = [ kv (f 1234567.0) (Value.Tuple [ vint 0; Value.Str "a" ]);
            kv (vint 7) (Value.Tuple [ vint 2; Value.Str "b" ]);
            kv (f 1234567.0) (Value.Tuple [ vint 4; Value.Str "a" ]);
            kv (vint 7) (Value.Tuple [ vint 5; Value.Str "b" ]) ]))
    [ 0; 64 ]

(* λm as the code generator compiles it: [x] is the record *)
let compiled_lam_m payloads =
  let emits = List.map (fun payload -> { Ir.guard = None; payload }) payloads in
  Plan.Flat_map
    {
      label = "flatMapToPair";
      f = Eval.push_lam_m [] { Ir.m_params = [ "x" ]; emits };
    }

(* a λm whose emits mix key-value and plain payloads raises through the
   engine before the next stage sees an emit of the record: a fused
   λr that would raise on the second emit never runs *)
let test_mixed_emits_raise () =
  let lm =
    compiled_lam_m
      Ir.
        [
          KV (CInt 0, Var "x"); KV (CInt 0, Var "x"); Val (Var "x");
        ]
  in
  let expected = Eval.Eval_error "λm mixes key-value and plain emits" in
  List.iter
    (fun (name, p) ->
      Alcotest.check_raises name expected (fun () ->
          ignore (run ~datasets:[ ("d", ints [ 1; 2 ]) ] p)))
    [
      ("flatMap alone", Plan.(data "d" |>> lm));
      ( "fused with reduceByKey",
        Plan.(data "d" |>> lm |>> reduce_by_key (fun _ _ -> failwith "λr")) );
    ]

(* λm hands each emit on as it fires (DESIGN.md §15): in memory, a fused
   reduceByKey's λr that raises on an earlier emit of a record wins over
   λm's error on a later emit of the same record. Under a spill budget
   λr runs only once the map has finished, so λm's error wins there. *)
let test_emit_error_precedence () =
  with_temp_dir "emit-order-test" @@ fun dir ->
  let lm =
    compiled_lam_m
      Ir.
        [
          KV (CInt 0, Var "x");
          KV (CInt 0, Var "x");
          KV (CInt 0, Binop (Mod, Var "x", CInt 0));
        ]
  in
  let lr =
    Eval.apply_lam_r [] { Ir.r_left = "a"; r_right = "b"; r_body = Ir.Var "zz" }
  in
  let p = Plan.(data "d" |>> lm |>> reduce_by_key lr) in
  let raises name config expected =
    Alcotest.check_raises name (Eval.Eval_error expected) (fun () ->
        ignore
          (Engine.run_plan ~config ~cluster:Cluster.spark
             ~datasets:[ ("d", ints [ 1 ]) ]
             p))
  in
  raises "in memory: λr on the second emit" Exec.Config.default
    "unbound IR variable zz";
  raises "spilled: λm's third emit"
    {
      Exec.Config.default with
      Exec.Config.memory_budget = Some 1;
      spill_dir = Some dir;
    }
    "mod by zero";
  check_int "no temp files survive" 0 (Array.length (Sys.readdir dir))

(* Every record an engine run makes is a list cell or a value of a few
   words, all born in the minor heap: a run allocates nothing straight
   into the major heap (DESIGN.md §11). Each plan runs in memory, with
   no cache, over 3,000 records with 100 distinct keys. Between two
   [Gc.minor] calls, the words that reached the major heap without
   being promoted from the minor heap are the run's direct major
   allocations: a block of more than 256 words, such as an array copy
   of the input or a hash table sized by the input, shows up here. A
   grouping table grows with the keys it meets, so the bound holds
   while a table holds at most 256 keys. The counts are the calling
   domain's own ([Gc.counters]): [Gc.quick_stat]'s major-word count is
   sampled, and reads short when a major slice runs inside the
   measured run. *)
let test_no_major_allocation () =
  let facts =
    List.init 3_000 (fun i ->
        Value.Tuple [ vint (i mod 100); Value.Str (string_of_int i) ])
  and dims = List.init 100 (fun i -> kv (vint i) (vint (i * i))) in
  let datasets = [ ("facts", facts); ("dims", dims) ] in
  (* λm (k, s) -> emit (k, 1), staged as the engine runs compiled
     summaries *)
  let count_keys =
    Plan.Flat_map
      {
        label = "count";
        f =
          Eval.push_lam_m []
            {
              Ir.m_params = [ "k"; "s" ];
              emits =
                [ { Ir.guard = None; payload = Ir.KV (Ir.Var "k", Ir.CInt 1) } ];
            };
      }
  in
  let plans =
    [
      ( "flatMap -> reduceByKey",
        Plan.(data "facts" |>> count_keys |>> reduce_by_key add_i) );
      ("map-only", Plan.(data "facts" |>> map (fun r -> kv r (vint 1))));
      ( "global reduce",
        Plan.(data "facts" |>> map (fun _ -> vint 1) |>> global_reduce add_i)
      );
      ("join", Plan.(data "facts" |>> join_with (data "dims")));
      ( "join, 3,000-record right side",
        Plan.(data "dims" |>> join_with (data "facts")) );
    ]
  in
  List.iter
    (fun (name, plan) ->
      Gc.minor ();
      let _, p0, m0 = Gc.counters () in
      let r =
        Engine.run_plan ~config:Exec.Config.default ~cluster:Cluster.spark
          ~datasets plan
      in
      Gc.minor ();
      let _, p1, m1 = Gc.counters () in
      check (name ^ ": ran") true (r.Engine.output <> []);
      check_int (name ^ ": direct major words") 0
        (int_of_float (m1 -. m0 -. (p1 -. p0))))
    plans

let suite =
  [
    ( "engine.stages",
      [
        Alcotest.test_case "flat_map" `Quick test_flat_map;
        Alcotest.test_case "filter + mapValues" `Quick test_filter_map_values;
        Alcotest.test_case "reduceByKey" `Quick test_reduce_by_key_result;
        Alcotest.test_case "combiner invariance" `Quick
          test_combiner_does_not_change_result;
        Alcotest.test_case "groupByKey" `Quick test_group_by_key;
        Alcotest.test_case "global reduce" `Quick test_global_reduce;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "metrics" `Quick test_metrics_bytes;
        Alcotest.test_case "unknown dataset" `Quick test_unknown_dataset;
        Alcotest.test_case "duplicate dataset" `Quick test_duplicate_dataset;
        Alcotest.test_case "many datasets" `Quick test_many_datasets;
        Alcotest.test_case "shuffle without workers" `Quick
          test_shuffle_without_workers;
        Alcotest.test_case "mixed λm emits raise" `Quick
          test_mixed_emits_raise;
        Alcotest.test_case "emit error precedence" `Quick
          test_emit_error_precedence;
      ] );
    ( "engine.partition",
      [
        Alcotest.test_case "keyed shuffle colocates keys" `Quick
          test_combined_ships_output;
        Alcotest.test_case "deterministic placement" `Quick
          test_keyed_partitioning_deterministic;
        Alcotest.test_case "raw and nominal shuffle rank alike" `Quick
          test_raw_and_nominal_rank_alike;
        Alcotest.test_case "keys grouped and joined by value" `Quick
          test_keys_by_value;
      ] );
    ( "engine.spill",
      [
        Alcotest.test_case "identity + obs counters" `Quick
          test_spill_identity_and_counters;
        Alcotest.test_case "explicit zero beats the default" `Quick
          test_spill_explicit_zero_wins;
        Alcotest.test_case "compaction under tiny budgets" `Quick
          test_spill_compaction;
        Alcotest.test_case "missing run file is a spill error" `Quick
          test_spill_missing_run;
        Alcotest.test_case "cleanup on failing reduce" `Quick
          test_spill_cleanup_on_failure;
        Alcotest.test_case "join passthrough" `Quick
          test_spill_join_passthrough;
        Testenv.qcheck prop_spill_matrix;
      ] );
    ( "engine.config",
      [
        Alcotest.test_case "missing spill_dir is a clean error" `Quick
          test_missing_spill_dir;
      ] );
    ( "engine.cancel",
      [
        Alcotest.test_case "cancel polls inside a stage" `Quick
          test_cancel_inside_a_stage;
      ] );
    ( "engine.alloc",
      [
        Alcotest.test_case "no direct major allocation per run" `Quick
          test_no_major_allocation;
      ] );
    ( "engine.time",
      [
        Alcotest.test_case "monotone in scale" `Quick
          test_time_monotone_in_scale;
        Alcotest.test_case "framework ordering" `Quick test_framework_ordering;
        Alcotest.test_case "sequential linearity" `Quick
          test_sequential_time_linear;
        Alcotest.test_case "combiner cap" `Quick test_combiner_cap_effect;
        Alcotest.test_case "speedup grows with size" `Quick
          test_speedup_grows_with_scale;
      ] );
  ]
