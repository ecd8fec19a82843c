(** Tests for the deterministic multicore runtime (lib/par).

    The load-bearing property is jobs-independence: both maps must
    equal [List.map] at every pool size, exceptions must pick the
    lowest-index raiser, and a batch must finish on its caller alone
    while the pool's workers are busy. A fragment search runs on one
    domain and must come out the same on a fresh domain and on one that
    already searched. *)

module Par = Casper_par.Par

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Shared pools for the property tests: spawning domains per qcheck
   iteration would dominate the suite's runtime. Never shut down —
   domains join at process exit. *)
let pools =
  lazy (List.map (fun jobs -> (jobs, Par.create ~jobs)) [ 1; 2; 3; 4 ])

(* ---------------- maps ≡ List.map at any pool size -------------- *)

let parallel_map_matches_list =
  QCheck.Test.make ~name:"parallel_map = List.map at jobs 1-4" ~count:60
    QCheck.(pair (fun1 Observable.int (list small_int)) (small_list int))
    (fun (f, xs) ->
      let fn x = QCheck.Fn.apply f x in
      List.for_all
        (fun (_, pool) -> Par.parallel_map pool fn xs = List.map fn xs)
        (Lazy.force pools))

(* [spawn_map] spawns domains per call; more items than jobs, so every
   domain claims several *)
let spawn_map_matches_list =
  QCheck.Test.make ~name:"spawn_map = List.map at jobs 1-4" ~count:40
    QCheck.(pair (fun1 Observable.int small_int) (list_of_size Gen.(5 -- 40) int))
    (fun (f, xs) ->
      let fn x = QCheck.Fn.apply f x in
      List.for_all
        (fun jobs -> Par.spawn_map ~jobs fn xs = List.map fn xs)
        [ 1; 2; 3; 4 ])

(* ---------------- exception propagation --------------------------- *)

let test_exception_lowest_index () =
  Par.with_pool ~jobs:4 @@ fun pool ->
  let raised =
    try
      ignore
        (Par.parallel_map pool
           (fun i ->
             if i mod 3 = 0 then failwith (string_of_int i) else i)
           (List.init 16 Fun.id));
      "no exception"
    with Failure m -> m
  in
  (* tasks 0, 3, 6, ... all raise; the map must re-raise the
     submission-order-first one regardless of execution order *)
  check_string "lowest-index exception wins" "0" raised;
  (* the batch was fully drained: the pool is still usable *)
  check_int "pool survives a raising batch" 10
    (List.fold_left ( + ) 0
       (Par.parallel_map pool Fun.id [ 1; 2; 3; 4 ]))

let test_spawn_map_lowest_index () =
  let raised =
    try
      ignore
        (Par.spawn_map ~jobs:4
           (fun i -> if i mod 3 = 2 then failwith (string_of_int i) else i)
           (List.init 16 Fun.id));
      "no exception"
    with Failure m -> m
  in
  check_string "lowest-index exception wins" "2" raised

let test_spawn_map_nesting () =
  check "not on a worker outside" false (Par.on_worker ());
  let nested =
    Par.with_pool ~jobs:2 @@ fun pool ->
    Par.spawn_map ~jobs:3
      (fun i ->
        (* inside: a task, and pool maps run inline *)
        (Par.on_worker (), Par.parallel_map pool succ [ i; i + 1 ]))
      [ 10; 20; 30; 40 ]
  in
  check "elements see on_worker" true (List.for_all fst nested);
  check "nested map correct" true
    (List.map snd nested = [ [ 11; 12 ]; [ 21; 22 ]; [ 31; 32 ]; [ 41; 42 ] ]);
  check "on_worker restored" false (Par.on_worker ());
  (* called from inside a pool task, spawn_map runs inline on that
     task's domain *)
  let from_task =
    Par.with_pool ~jobs:2 @@ fun pool ->
    Par.parallel_map pool
      (fun i ->
        let self = Domain.self () in
        Par.spawn_map ~jobs:4 (fun j -> (Domain.self () = self, i + j)) [ 1; 2; 3 ])
      [ 100; 200 ]
  in
  check "inline inside a task" true
    (List.for_all (List.for_all fst) from_task);
  check "results" true
    (List.map (List.map snd) from_task = [ [ 101; 102; 103 ]; [ 201; 202; 203 ] ]);
  check "jobs < 1 rejected" true
    (match Par.spawn_map ~jobs:0 Fun.id [ 1; 2 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* every spawned domain is joined: the thread count comes back *)
let test_spawn_map_no_leftover () =
  match Testenv.steady_threads () with
  | None -> ()
  | Some n ->
      for _ = 1 to 5 do
        ignore (Par.spawn_map ~jobs:4 succ (List.init 20 Fun.id))
      done;
      check_int "threads after five calls" n (Testenv.settled_threads n)

(* ---------------- lifecycle --------------------------------------- *)

let test_shutdown_and_reuse () =
  let pool = Par.create ~jobs:2 in
  check_int "usable before shutdown" 6
    (List.fold_left ( + ) 0 (Par.parallel_map pool succ [ 0; 1; 2 ]));
  Par.shutdown pool;
  Par.shutdown pool (* idempotent *);
  check "use after shutdown raises" true
    (match Par.parallel_map pool succ [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "jobs < 1 rejected" true
    (match Par.create ~jobs:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nested_runs_inline () =
  Par.with_pool ~jobs:3 @@ fun pool ->
  check "not on a worker outside a task" false (Par.on_worker ());
  let nested =
    Par.parallel_map pool
      (fun i ->
        (* inside a task: nested maps run inline, same result *)
        (Par.on_worker (), Par.parallel_map pool succ [ i; i + 1 ]))
      [ 10; 20 ]
  in
  check "tasks see on_worker" true (List.for_all fst nested);
  check "nested map correct" true
    (List.map snd nested = [ [ 11; 12 ]; [ 21; 22 ] ])

(* [true] once [flag] is set, [false] if it is still unset after 10 s *)
let wait_for (flag : bool Atomic.t) : bool =
  let rec poll tries =
    Atomic.get flag
    || (tries > 0
       && begin
            Unix.sleepf 0.001;
            poll (tries - 1)
          end)
  in
  poll 10_000

(* The one worker of a 2-job pool blocks in an async task, so the
   batch's helper task stays queued behind it: the caller must claim
   every element itself and return without waiting for the worker. *)
let test_batch_with_busy_workers () =
  let pool = Par.create ~jobs:2 in
  let started = Atomic.make false and release = Atomic.make false in
  let timed_out = Atomic.make false in
  Par.async pool (fun () ->
      Atomic.set started true;
      if not (wait_for release) then Atomic.set timed_out true);
  check "the worker took the blocking task" true (wait_for started);
  let self = Domain.self () in
  let xs = List.init 8 Fun.id in
  let out =
    Par.parallel_map pool (fun x -> (Domain.self () = self, x * x)) xs
  in
  let waited = Atomic.get timed_out in
  Atomic.set release true;
  Par.shutdown pool;
  check "the map did not wait for the worker" false waited;
  check "every element computed by the caller" true (List.for_all fst out);
  check "results = List.map" true
    (List.map snd out = List.map (fun x -> x * x) xs)

(* Two domains map on one pool at once: each gets its own results and
   its own lowest-index exception. *)
let test_two_domains_share_pool () =
  Par.with_pool ~jobs:3 @@ fun pool ->
  let xs = List.init 24 Fun.id in
  let rounds tag =
    List.init 50 (fun r ->
        if r mod 5 = 4 then
          let bad = 1 + (r mod 3) in
          match
            Par.parallel_map pool
              (fun x ->
                if x mod 4 = bad then failwith (tag ^ string_of_int x) else x)
              xs
          with
          | _ -> false
          | exception Failure m -> m = tag ^ string_of_int bad
        else
          let f x = (x * r) + String.length tag in
          Par.parallel_map pool f xs = List.map f xs)
  in
  let other = Domain.spawn (fun () -> rounds "test-domain") in
  let mine = rounds "main" in
  let theirs = Domain.join other in
  check "main domain: every map right" true (List.for_all Fun.id mine);
  check "test domain: every map right" true (List.for_all Fun.id theirs)

(* An exception escaping an async task is dropped: the worker goes on
   taking tasks, and the pool maps and shuts down as before. *)
let test_raising_async () =
  let before = Testenv.steady_threads () in
  let pool = Par.create ~jobs:2 in
  let after = Atomic.make false in
  Par.async pool (fun () -> failwith "dropped");
  Par.async pool (fun () -> Atomic.set after true);
  check "the worker survived the raising task" true (wait_for after);
  check "parallel_map still works" true
    (Par.parallel_map pool succ (List.init 10 Fun.id) = List.init 10 succ);
  check "shutdown does not raise" true
    (match Par.shutdown pool with () -> true | exception _ -> false);
  match before with
  | None -> ()
  | Some n ->
      check_int "threads back to their count before the pool" n
        (Testenv.settled_threads n)

(* ---------------- pool sizing ------------------------------------- *)

(* a pure clamp to the host's cores, which says so once *)
let test_recommended_jobs_clamp () =
  let host = Domain.recommended_domain_count () in
  check_int "1 job never clamps" 1 (Par.recommended_jobs 1);
  check_int "host cores pass through" host (Par.recommended_jobs host);
  check_int "over-subscription clamps to host cores" host
    (Par.recommended_jobs (host + 3));
  check "the warning used its one shot" false
    (Casper_obs.Obs.warn_once ~key:"par.jobs-clamped" "warned again")

let test_warn_once_is_once () =
  let key = "test.par.warn-once-key" in
  check "first warn fires" true (Casper_obs.Obs.warn_once ~key "warned");
  check "second warn suppressed" false
    (Casper_obs.Obs.warn_once ~key "warned again")

(* ---------------- search domain-independence ---------------- *)

(* A search runs on one domain from start to finish and empties that
   domain's memo shard at entry, but interner and env ids keep counting
   across searches. A domain that already searched another fragment
   must therefore find the same stats and solutions as a fresh one: no
   leftover shard state, and no outcome that depends on an id's value.
   Two fragments without a summary (mostly unbuilt candidates), one
   with several, and three that translate in a few CEGIS rounds; the
   domain is first used by PCA/colMeans, a large matrix search. *)
let test_search_domain_reuse () =
  let module Cegis = Casper_synth.Cegis in
  let fragment (bench, frag_id) =
    let b = Casper_suites.Registry.find_benchmark bench in
    let prog = Minijava.Parser.parse_program b.source in
    let frag =
      List.find
        (fun (f : Casper_analysis.Fragment.t) ->
          String.equal f.Casper_analysis.Fragment.frag_id frag_id)
        (Casper_analysis.Analyze.fragments_of_program prog ~suite:b.suite
           ~benchmark:b.name)
    in
    (bench ^ "/" ^ frag_id, prog, frag)
  in
  let cases =
    List.map fragment
      [
        ("TemporalMedian", "median3#0");
        ("NLMeans", "adaptiveCut#0");
        ("KMeans", "clusterCounts#0");
        ("WordCount", "wordcount#0");
        ("Sum", "sum#0");
        ("StringMatch", "stringmatch#0");
      ]
  in
  let run (_, prog, frag) =
    let o = Cegis.find_summary prog frag in
    ( { o.Cegis.stats with Cegis.elapsed_s = 0.0 },
      List.map
        (fun (s : Cegis.solution) ->
          ( Casper_ir.Lang.summary_to_string s.Cegis.summary,
            s.klass,
            s.comm_assoc,
            s.static_cost ))
        o.Cegis.solutions )
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let fresh = List.map (fun c -> on_fresh_domain (fun () -> run c)) cases in
  let reused =
    on_fresh_domain (fun () ->
        ignore (run (fragment ("PCA", "colMeans#0")));
        List.map run cases)
  in
  List.iter2
    (fun ((tag, _, _), (st_a, sols_a)) (st_b, sols_b) ->
      check (tag ^ ": stats identical") true (st_a = st_b);
      check (tag ^ ": solutions identical") true (sols_a = sols_b))
    (List.combine cases fresh) reused

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [
    qsuite "par.props"
      [
        parallel_map_matches_list;
        spawn_map_matches_list;
      ];
    ( "par.granularity",
      [
        Alcotest.test_case "recommended_jobs clamps to host" `Quick
          test_recommended_jobs_clamp;
        Alcotest.test_case "warn_once fires once" `Quick
          test_warn_once_is_once;
      ] );
    ( "par.pool",
      [
        Alcotest.test_case "lowest-index exception propagates" `Quick
          test_exception_lowest_index;
        Alcotest.test_case "shutdown is idempotent, reuse raises" `Quick
          test_shutdown_and_reuse;
        Alcotest.test_case "nested combinators run inline" `Quick
          test_nested_runs_inline;
        Alcotest.test_case "a batch finishes while every worker is busy"
          `Quick test_batch_with_busy_workers;
        Alcotest.test_case "two domains share one pool" `Quick
          test_two_domains_share_pool;
        Alcotest.test_case "a raising async task leaves the pool whole"
          `Quick test_raising_async;
        Alcotest.test_case "spawn_map: lowest-index exception" `Quick
          test_spawn_map_lowest_index;
        Alcotest.test_case "spawn_map: nesting runs inline" `Quick
          test_spawn_map_nesting;
        Alcotest.test_case "spawn_map: no domain outlives the call" `Quick
          test_spawn_map_no_leftover;
      ] );
    ( "par.determinism",
      [
        Alcotest.test_case "search identical on a reused domain" `Slow
          test_search_domain_reuse;
      ] );
  ]
