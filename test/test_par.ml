(** Tests for the deterministic multicore runtime (lib/par).

    The load-bearing property is jobs-independence: [spawn_map] must
    equal [List.map] at every [jobs], exceptions must pick the
    lowest-index raiser, and no spawned domain may outlive the call. A
    fragment search runs on one domain and must come out the same on a
    fresh domain and on one that already searched. *)

module Par = Casper_par.Par

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- spawn_map ≡ List.map at any jobs -------------- *)

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
  (* inside a task, every element sees [on_worker] and a nested
     spawn_map runs inline on the element's domain *)
  let nested =
    Par.spawn_map ~jobs:3
      (fun i ->
        let self = Domain.self () in
        ( Par.on_worker (),
          Par.spawn_map ~jobs:4
            (fun j -> (Domain.self () = self, i + j))
            [ 1; 2; 3 ] ))
      [ 10; 20; 30; 40 ]
  in
  check "elements see on_worker" true (List.for_all fst nested);
  check "inline inside a task" true
    (List.for_all (fun (_, inner) -> List.for_all fst inner) nested);
  check "nested map correct" true
    (List.map (fun (_, inner) -> List.map snd inner) nested
    = [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]);
  check "on_worker restored" false (Par.on_worker ());
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

(* ---------------- domain count ------------------------------------ *)

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

(* A search runs on one domain from start to finish, and every table it
   fills is its own: nothing of one search is left on the domain for
   the next. A domain that already searched another fragment must
   therefore find the same stats and solutions as a fresh one: no
   outcome that depends on what the domain ran before. Two fragments
   without a summary (mostly unbuilt candidates), one with several, and
   three that translate in a few CEGIS rounds; the domain is first used
   by PCA/colMeans, a large matrix search. *)
let test_search_domain_reuse () =
  let module Cegis = Casper_synth.Cegis in
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

(* One search's enumeration interleaved with a whole other search on
   the same domain. StringMatch's candidates are consumed as its search
   consumes them: a built candidate goes through the Φ check, whose
   refutations leave later candidates unbuilt. WordCount's whole search
   runs after the first 100 items. The items and the unbuilt count must
   equal an uninterleaved run's: the other search touches none of this
   one's tables. *)
let test_searches_interleave () =
  let module Cegis = Casper_synth.Cegis in
  let module E = Casper_synth.Enumerate in
  let module G = Casper_synth.Grammar in
  let module V = Casper_verify.Verifier in
  let _, prog_b, frag_b = fragment ("WordCount", "wordcount#0") in
  let run ~between =
    let _, prog, frag = fragment ("StringMatch", "stringmatch#0") in
    let pools = G.build prog frag (Cegis.make_probes prog frag) in
    let st =
      Cegis.make_state ~phi:(V.states V.Phi prog frag) prog frag
        ~budget:max_int
    in
    let unbuilt = ref 0 in
    let consume = function
      | E.Cand c ->
          ignore (Cegis.holds_on_phi st frag c);
          Casper_ir.Lang.summary_to_string c.E.summary
      | E.Bulk { n; _ } ->
          unbuilt := !unbuilt + n;
          Printf.sprintf "%d unbuilt" n
    in
    (* consumed one item at a time: re-running a prefix of the sequence
       would repeat its Φ checks *)
    let rec take n s acc =
      if n = 0 then (List.rev acc, s)
      else
        match s () with
        | Seq.Nil -> (List.rev acc, Seq.empty)
        | Seq.Cons (it, rest) -> take (n - 1) rest (consume it :: acc)
    in
    let items =
      List.to_seq (G.classes frag)
      |> Seq.concat_map (fun k ->
             E.candidates ~dead:(Cegis.dead st) prog frag pools k)
    in
    let first, rest = take 100 items [] in
    between ();
    let second, _ = take 3000 rest [] in
    (first @ second, !unbuilt)
  in
  let alone, unbuilt_alone = run ~between:ignore in
  let interleaved, unbuilt_interleaved =
    run ~between:(fun () -> ignore (Cegis.find_summary prog_b frag_b))
  in
  check "some candidates are left unbuilt" true (unbuilt_alone > 0);
  Alcotest.(check (list string)) "the same items" alone interleaved;
  Alcotest.(check int) "the same unbuilt count" unbuilt_alone
    unbuilt_interleaved

let suite =
  [
    Testenv.qsuite "par.props"
      [ spawn_map_matches_list ];
    ( "par.granularity",
      [
        Alcotest.test_case "recommended_jobs clamps to host" `Quick
          test_recommended_jobs_clamp;
        Alcotest.test_case "warn_once fires once" `Quick
          test_warn_once_is_once;
      ] );
    ( "par.pool",
      [
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
        Alcotest.test_case "searches interleaved on one domain" `Quick
          test_searches_interleave;
      ] );
  ]
