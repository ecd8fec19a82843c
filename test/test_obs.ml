(** Tests for the observability substrate: the deterministic virtual
    clock, span nesting and exception safety, counters, disabled
    no-ops, golden span-tree shapes for representative suite workloads
    (values may vary, structure may not), byte-identical exports for
    same-seed traced engine runs, transparency (tracing changes no pipeline
    output), Chrome trace_event JSON validity, and the tracing
    allocation budget on the Table 2 search. *)

module Obs = Casper_obs.Obs
module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis
module Engine = Mapreduce.Engine
module Exec = Casper_exec.Exec
module Cluster = Mapreduce.Cluster
module Value = Casper_common.Value
module Rng = Casper_common.Rng
module Workload = Casper_suites.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

(* ---------------- clock ---------------- *)

let test_virtual_clock () =
  let c1 = Obs.virtual_clock ~seed:3 () in
  let c2 = Obs.virtual_clock ~seed:3 () in
  let xs = List.init 100 (fun _ -> c1 ()) in
  let ys = List.init 100 (fun _ -> c2 ()) in
  check "same seed, same readings" true (xs = ys);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check "strictly increasing" true (increasing xs);
  let c3 = Obs.virtual_clock ~seed:4 () in
  ignore (c3 ());
  (* first reading is the 0.0 origin for any seed; steps differ *)
  check "different seed, different steps" true (c3 () <> List.nth xs 1)

(* ---------------- spans, counters, nesting ---------------- *)

let test_span_nesting () =
  let obs = Obs.create ~clock:(Obs.virtual_clock ()) () in
  Obs.span obs "a" (fun () ->
      Obs.add obs "k" 2;
      Obs.span obs "b" (fun () -> Obs.add obs "k" 1);
      Obs.span obs "b" (fun () -> ()));
  Obs.span obs "c" (fun () -> ());
  check "well formed after use" true (Obs.well_formed obs);
  match Obs.tree obs with
  | [ a; c ] ->
      check_str "first top span" "a" a.Obs.v_name;
      check_str "second top span" "c" c.Obs.v_name;
      check_int "a has two children" 2 (List.length a.Obs.v_children);
      check "children in start order" true
        (List.for_all (fun v -> v.Obs.v_name = "b") a.Obs.v_children);
      check "a's counter only counts its own bumps" true
        (a.Obs.v_counters = [ ("k", 2) ]);
      check "span ends after it starts" true (a.Obs.v_t1 > a.Obs.v_t0);
      check "child nested in parent" true
        (let b = List.hd a.Obs.v_children in
         b.Obs.v_t0 >= a.Obs.v_t0 && b.Obs.v_t1 <= a.Obs.v_t1);
      check_int "flat total sums all bumps" 3 (Obs.total obs "k")
  | l -> Alcotest.failf "expected 2 top-level spans, got %d" (List.length l)

(* children recorded apart and grafted back read like one sequential
   run under the parent's innermost open span *)
let test_fork_graft () =
  let obs = Obs.create ~clock:(Obs.virtual_clock ()) () in
  Obs.span obs "outer" (fun () ->
      let c1 = Obs.fork obs and c2 = Obs.fork obs in
      Obs.span c1 "a" (fun () -> Obs.add c1 "k" 1);
      Obs.add c1 "loose" 2;
      Obs.span c2 "b" (fun () -> Obs.add c2 "k" 3);
      Obs.graft obs c1;
      Obs.graft obs c2);
  check "well formed" true (Obs.well_formed obs);
  check_str "grafted in order" "outer[loose]\n  a[k]\n  b[k]\n" (Obs.shape obs);
  check_int "totals added" 4 (Obs.total obs "k");
  check_int "loose counter" 2 (Obs.total obs "loose");
  check "fork of a disabled context is disabled" false
    (Obs.enabled (Obs.fork Obs.null))

let test_disabled_noops () =
  let obs = Obs.null in
  check "null is disabled" false (Obs.enabled obs);
  let r = Obs.span obs "a" (fun () -> Obs.add obs "k" 1; 42) in
  check_int "span still runs the body" 42 r;
  Obs.span_at obs ~track:"exec" ~t0:0.0 ~t1:1.0 "t";
  check "tree stays empty" true (Obs.tree obs = []);
  check_int "totals stay empty" 0 (Obs.total obs "k");
  check "trivially well formed" true (Obs.well_formed obs);
  check_str "empty shape" "" (Obs.shape obs)

let test_exception_safety () =
  let obs = Obs.create ~clock:(Obs.virtual_clock ()) () in
  (try
     Obs.span obs "outer" (fun () ->
         Obs.span obs "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check "spans closed on exception" true (Obs.well_formed obs);
  match Obs.tree obs with
  | [ outer ] ->
      check "outer closed" true (outer.Obs.v_t1 >= outer.Obs.v_t0);
      check_int "inner recorded" 1 (List.length outer.Obs.v_children)
  | l -> Alcotest.failf "expected 1 top-level span, got %d" (List.length l)

(* ---------------- golden span-tree shapes ---------------- *)

(* A full traced pipeline run for one registry benchmark, under the
   virtual clock: analysis through codegen, then simulated execution.
   Values (durations, counts) vary with the
   search; the *shape* — span names, nesting, counter keys — must not.
   The execution config is the built-in default, not the environment's:
   a spill budget would grow spill counters and a merge span, a cache
   would add cache spans, and the goldens are defined at the uncached
   in-memory path. *)
let traced_pipeline ?(execute = false) bench_name =
  let b = Casper_suites.Registry.find_benchmark bench_name in
  let obs = Obs.create ~clock:(Obs.virtual_clock ~seed:11 ()) () in
  let report =
    Casper.translate_source ~obs ~config ~suite:b.Casper_suites.Suite.suite
      ~benchmark:b.Casper_suites.Suite.name b.Casper_suites.Suite.source
  in
  if execute then
    List.iter
      (fun (t : Casper.translation) ->
        match t.Casper.survivors with
        | best :: _ ->
            let env =
              b.Casper_suites.Suite.workload.Casper_suites.Suite.gen
                (Rng.create 11) ~n:200
            in
            let entry =
              Casper_vcgen.Vc.entry_of_params report.Casper.program
                t.Casper.frag env
            in
            Obs.span obs "execute" (fun () ->
                ignore
                  (Casper_codegen.Runner.run_summary
                     ~config:
                       { Exec.Config.default with Exec.Config.obs = Some obs }
                     ~cluster:Cluster.spark ~scale:1.0 report.Casper.program
                     t.Casper.frag entry best.Cegis.summary))
        | [] -> ())
      report.Casper.translations;
  (obs, report)

let golden_shape_test bench_name ~execute expected () =
  let obs, _ = traced_pipeline ~execute bench_name in
  check "well formed" true (Obs.well_formed obs);
  check_str (bench_name ^ " span-tree shape") expected (Obs.shape obs)

(* Phoenix WordCount: keyed fold; executed on the simulated cluster, so
   the engine spans show. *)
let wordcount_shape =
  "parse\n\
   typecheck\n\
   analysis[fragments,unsupported_fragments]\n\
   fragment\n\
  \  synthesis[blocked_set,candidates_unbuilt,memo_cell_hits,memo_cell_misses]\n\
  \    grammar\n\
  \    class\n\
  \      round[candidates]\n\
  \    class\n\
  \      round[candidates,cegis_iterations]\n\
  \        bounded-verify\n\
  \      full-verify\n\
  \      round\n\
  \  cost-prune\n\
  \  codegen\n\
   execute\n\
  \  engine.run_plan\n\
  \    flatMapToPair[records_out]\n\
  \    reduceByKey[records_out,shuffle_bytes,shuffle_records]\n"

(* Stats Mean: scalar fold, two grammar classes explored. *)
let mean_shape =
  "parse\n\
   typecheck\n\
   analysis[fragments,unsupported_fragments]\n\
   fragment\n\
  \  synthesis[blocked_set,candidates_unbuilt,memo_cell_hits,memo_cell_misses]\n\
  \    grammar\n\
  \    class\n\
  \      round\n\
  \    class\n\
  \      round[candidates,cegis_iterations]\n\
  \        bounded-verify\n\
  \      full-verify\n\
  \      round[candidates]\n\
  \  cost-prune\n\
  \  codegen\n"

(* TPC-H Q6: guarded aggregation; the second class pays theorem-prover
   rejections before converging. *)
let q6_shape =
  "parse\n\
   typecheck\n\
   analysis[fragments,unsupported_fragments]\n\
   fragment\n\
  \  synthesis[blocked_set,candidates_unbuilt,memo_cell_hits,memo_cell_misses]\n\
  \    grammar\n\
  \    class\n\
  \      round\n\
  \    class[tp_failures]\n\
  \      round[candidates,cegis_iterations]\n\
  \        bounded-verify\n\
  \      full-verify\n\
  \      round[candidates,cegis_iterations]\n\
  \        bounded-verify\n\
  \      round[candidates]\n\
  \  cost-prune\n\
  \  codegen\n"

(* TPC-H Q17: three fragments, translated concurrently. Each records
   into a child context on its own domain; grafted back in fragment
   order, the tree is the one sequential [translate_fragment] calls
   record under one context: same spans, arguments and counter values,
   same totals. Only timestamps may differ. *)
let rec render buf indent (v : Obs.view) =
  Printf.bprintf buf "%s%s@%s %s %s\n" (String.make indent ' ') v.Obs.v_name
    v.Obs.v_track
    (String.concat "," (List.map (fun (k, a) -> k ^ "=" ^ a) v.Obs.v_args))
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) v.Obs.v_counters));
  List.iter (render buf (indent + 2)) v.Obs.v_children

let full_tree obs =
  let buf = Buffer.create 4096 in
  List.iter (render buf 0) (Obs.tree obs);
  Buffer.contents buf

let test_concurrent_fragments_shape () =
  let b = Casper_suites.Registry.find_benchmark "Q17" in
  let suite = b.Casper_suites.Suite.suite
  and benchmark = b.Casper_suites.Suite.name
  and src = b.Casper_suites.Suite.source in
  let fresh () = Obs.create ~clock:(Obs.virtual_clock ~seed:11 ()) () in
  let par = fresh () in
  let report = Casper.translate_source ~obs:par ~config ~suite ~benchmark src in
  let seq = fresh () in
  let program =
    Obs.span seq "parse" (fun () -> Minijava.Parser.parse_program src)
  in
  Obs.span seq "typecheck" (fun () -> Minijava.Typecheck.check_program program);
  let frags =
    Casper_analysis.Analyze.fragments_of_program ~obs:seq program ~suite
      ~benchmark
  in
  check_int "three fragments" 3 (List.length report.Casper.translations);
  List.iter
    (fun f -> ignore (Casper.translate_fragment ~obs:seq ~config program f))
    frags;
  check "well formed" true (Obs.well_formed par);
  check_str "same shape" (Obs.shape seq) (Obs.shape par);
  check_str "same spans and counters" (full_tree seq) (full_tree par);
  check_str "same totals"
    (Casper_common.Jsonout.to_string (Obs.metrics seq))
    (Casper_common.Jsonout.to_string (Obs.metrics par))

(* ---------------- determinism: same seed, same bytes -------------- *)

let traced_engine_run () =
  let rng = Rng.create 7 in
  let words =
    Value.as_list (Workload.words rng ~n:500 ~vocab:50 ~skew:1.0)
  in
  let obs = Obs.create ~clock:(Obs.virtual_clock ~seed:5 ()) () in
  ignore
    (Engine.run_plan ~config:(Testenv.traced obs) ~cluster:Cluster.spark
       ~datasets:[ ("words", words) ]
       Baselines.Manual.word_count
      : Engine.run);
  obs

let test_engine_export_deterministic () =
  let a = traced_engine_run () and b = traced_engine_run () in
  check "well formed" true (Obs.well_formed a);
  check "the run recorded its stages" true
    (Obs.total a "shuffle_records" > 0);
  check_str "same-seed engine runs export byte-identical traces"
    (Obs.to_chrome_string a) (Obs.to_chrome_string b)

(* ---------------- transparency: tracing changes nothing ----------- *)

let stats_sans_time (s : Cegis.stats) =
  (s.Cegis.candidates_tried, s.Cegis.cegis_iterations, s.Cegis.tp_failures,
   s.Cegis.classes_explored, s.Cegis.timed_out)

let test_tracing_transparent () =
  let b = Casper_suites.Registry.find_benchmark "WordCount" in
  let translate obs =
    Casper.translate_source ~obs ~config ~suite:b.Casper_suites.Suite.suite
      ~benchmark:b.Casper_suites.Suite.name b.Casper_suites.Suite.source
  in
  let off = translate Obs.null in
  let on = translate (Obs.create ~clock:(Obs.virtual_clock ~seed:11 ()) ()) in
  List.iter2
    (fun (a : Casper.translation) (b : Casper.translation) ->
      check "same search statistics" true
        (stats_sans_time a.Casper.outcome.Cegis.stats
        = stats_sans_time b.Casper.outcome.Cegis.stats);
      check "same survivors" true
        (List.map (fun (s : Cegis.solution) -> s.Cegis.summary)
           a.Casper.survivors
        = List.map (fun (s : Cegis.solution) -> s.Cegis.summary)
            b.Casper.survivors);
      check "same generated Spark source" true
        (a.Casper.spark_src = b.Casper.spark_src))
    off.Casper.translations on.Casper.translations

(* ---------------- Chrome trace_event JSON validity ---------------- *)

(* a minimal JSON syntax validator — enough to catch malformed output
   without an external parser dependency *)
let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true
                                     | _ -> false)
    do incr pos done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let rec value () =
    skip_ws ();
    if !fail then ()
    else
      match peek () with
      | Some '{' ->
          incr pos; skip_ws ();
          if peek () = Some '}' then incr pos
          else begin
            let rec members () =
              skip_ws (); expect '"'; string_body (); skip_ws ();
              expect ':'; value (); skip_ws ();
              if (not !fail) && peek () = Some ',' then begin
                incr pos; members ()
              end
            in
            members (); skip_ws (); expect '}'
          end
      | Some '[' ->
          incr pos; skip_ws ();
          if peek () = Some ']' then incr pos
          else begin
            let rec items () =
              value (); skip_ws ();
              if (not !fail) && peek () = Some ',' then begin
                incr pos; items ()
              end
            in
            items (); skip_ws (); expect ']'
          end
      | Some '"' -> incr pos; string_body ()
      | Some ('t' | 'f' | 'n') ->
          let lit =
            match s.[!pos] with
            | 't' -> "true" | 'f' -> "false" | _ -> "null"
          in
          let l = String.length lit in
          if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
          else fail := true
      | Some ('-' | '0' .. '9') ->
          let num c =
            match c with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false
          in
          while !pos < n && num s.[!pos] do incr pos done
      | _ -> fail := true
  and string_body () =
    let rec go () =
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' -> pos := !pos + 2; go ()
        | _ -> incr pos; go ()
    in
    go ()
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_chrome_export_valid () =
  let obs, _ = traced_pipeline ~execute:true "WordCount" in
  let s = Obs.to_chrome_string obs in
  check "chrome export is syntactically valid JSON" true (json_valid s);
  let contains sub =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check ("export mentions " ^ key) true (contains key))
    [
      "\"traceEvents\""; "\"displayTimeUnit\""; "\"metrics\"";
      "\"ph\": \"X\""; "\"synthesis\""; "\"analysis\""; "\"codegen\"";
      "\"engine.run_plan\""; "\"shuffle_records\"";
    ];
  (* the flat metrics carry the fast-path and engine counters *)
  check "candidates counted" true (Obs.total obs "candidates" > 0);
  check "shuffle records counted" true (Obs.total obs "shuffle_records" > 0)

(* ---------------- overhead budget ---------------- *)

(* One pass of the Table 2 search workload: every supported fragment of
   every suite, analysed and searched afresh on the calling domain (no
   fragment map, no translation cache), each suite under a "suite" span.
   Returns the minor-heap words the pass allocated, which is
   deterministic for a build, unlike its wall time. *)
let table2_search_words (obs : Obs.ctx) : float =
  let w0 = Gc.minor_words () in
  List.iter
    (fun (suite_name, benches) ->
      Obs.span obs ~args:[ ("suite", suite_name) ] "suite" @@ fun () ->
      List.iter
        (fun (b : Casper_suites.Suite.benchmark) ->
          let prog = Minijava.Parser.parse_program b.source in
          Casper_analysis.Analyze.fragments_of_program ~obs prog
            ~suite:b.suite ~benchmark:b.name
          |> List.iter (fun (f : Casper_analysis.Fragment.t) ->
                 if f.Casper_analysis.Fragment.unsupported = None then
                   ignore (Cegis.find_summary ~obs ~config prog f)))
        benches)
    Casper_suites.Registry.suites;
  Gc.minor_words () -. w0

(* The instrumentation budget (DESIGN.md §9): an enabled trace may
   allocate under 2% more than a disabled one on the Table 2 search.
   The untraced pass already carries every Obs call as a no-op, so this
   bounds disabled tracing too. *)
let test_tracing_overhead () =
  let plain = table2_search_words Obs.null in
  let traced = table2_search_words (Obs.create ()) in
  let pct = 100.0 *. ((traced /. plain) -. 1.0) in
  if pct >= 2.0 then
    Alcotest.failf
      "traced pass allocated %.0f minor words vs %.0f untraced (%+.3f%%, \
       budget 2%%)"
      traced plain pct

(* ---------------- suite ---------------- *)

let suite =
  [
    ( "obs.core",
      [
        Alcotest.test_case "virtual clock deterministic + increasing" `Quick
          test_virtual_clock;
        Alcotest.test_case "span nesting, counters, totals" `Quick
          test_span_nesting;
        Alcotest.test_case "disabled contexts are no-ops" `Quick
          test_disabled_noops;
        Alcotest.test_case "fork and graft read as one run" `Quick
          test_fork_graft;
        Alcotest.test_case "spans close on exceptions" `Quick
          test_exception_safety;
      ] );
    ( "obs.golden",
      [
        Alcotest.test_case "WordCount pipeline shape" `Slow
          (golden_shape_test "WordCount" ~execute:true wordcount_shape);
        Alcotest.test_case "Mean pipeline shape" `Slow
          (golden_shape_test "Mean" ~execute:false mean_shape);
        Alcotest.test_case "Q6 pipeline shape" `Slow
          (golden_shape_test "Q6" ~execute:false q6_shape);
        Alcotest.test_case "Q17 concurrent fragments = sequential tree" `Slow
          test_concurrent_fragments_shape;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "same-seed engine runs export identical bytes"
          `Quick test_engine_export_deterministic;
        Alcotest.test_case "chrome trace_event output is valid JSON" `Slow
          test_chrome_export_valid;
      ] );
    ( "obs.transparent",
      [
        Alcotest.test_case "tracing does not change pipeline output" `Slow
          test_tracing_transparent;
      ] );
    ( "obs.overhead",
      [
        Alcotest.test_case "tracing allocates < 2% more on Table 2" `Slow
          test_tracing_overhead;
      ] );
  ]
