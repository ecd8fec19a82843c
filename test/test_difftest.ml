(** Tests for the differential fuzzing subsystem: printer round-trips
    over every suite source and over generated programs, a smoke fuzz
    campaign that must come back divergence-free, replay of the
    committed regression corpus, and the shrinker's contract. *)

module Parser = Minijava.Parser
module Pp = Minijava.Pp
module Typecheck = Minijava.Typecheck
module Gen = Difftest.Gen
module Oracle = Difftest.Oracle
module Harness = Difftest.Harness
module Shrink = Difftest.Shrink
module Rng = Casper_common.Rng
module Suite = Casper_suites.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------------- printer round-trips ---------------- *)

(* The printer cannot promise print(parse src) = src for hand-written
   sources (comments, layout, redundant parens), but printed output must
   be a fixpoint: parsing it and printing again changes nothing. *)
let roundtrip_fixpoint ~what (src : string) =
  let p = Parser.parse_program src in
  let once = Pp.program_to_string p in
  let twice = Pp.program_to_string (Parser.parse_program once) in
  check_str (what ^ ": printed source is a parse/print fixpoint") once twice;
  Typecheck.check_program (Parser.parse_program once)

let test_roundtrip_suites () =
  List.iter
    (fun (suite_name, benches) ->
      List.iter
        (fun (b : Suite.benchmark) ->
          roundtrip_fixpoint ~what:(suite_name ^ "/" ^ b.Suite.name) b.Suite.source)
        benches)
    Casper_suites.Registry.suites

let test_roundtrip_generated () =
  let rng = Rng.create 11 in
  for i = 0 to 149 do
    let g = Gen.program rng in
    let what = Fmt.str "%s-%d" g.Gen.shape i in
    roundtrip_fixpoint ~what (Pp.program_to_string g.Gen.prog)
  done

(* ---------------- smoke fuzz campaign ---------------- *)

(* A small fixed-seed campaign runs the full differential pipeline —
   an untraced and a traced search, every backend, spill, cache and
   sessions — and must find no divergence. The scheduled CI job runs the
   big sibling. *)
let test_smoke_campaign () =
  let report = Harness.run_campaign ~seed:7 ~count:25 ~minimize:false () in
  check_int "all programs accounted for" 25
    (report.Harness.translated + report.Harness.skipped
    + List.length report.Harness.failures);
  List.iter
    (fun (fl : Harness.failure) ->
      Alcotest.failf "divergence on %s-%d: %a" fl.Harness.shape
        fl.Harness.index Oracle.pp_divergence fl.Harness.divergence)
    report.Harness.failures;
  check "most generated programs translate" true
    (report.Harness.translated >= 15)

(* Checking a wave on several domains must not move the report: program
   [i] is generated before dispatch and its verdict depends on no other
   program, so the counts, skip reasons, failures and log lines of an
   inline campaign and of one whose waves map on 2 spawned domains are
   equal. A 100-candidate search budget makes some programs skip, so the
   counts depend on which programs were checked, and waves that changed
   the program stream would show. *)
let test_campaign_jobs_identity () =
  let config =
    {
      (Oracle.default_config ~seed:7 ()) with
      Oracle.synth =
        { Casper_synth.Cegis.default_config with max_candidates = 100 };
    }
  in
  let campaign jobs =
    let lines = ref [] in
    let r =
      Harness.run_campaign
        ~log:(fun l -> lines := l :: !lines)
        ~config ~jobs ~seed:7 ~count:25 ~minimize:false ()
    in
    (r, List.rev !lines)
  in
  let inline, inline_log = campaign 1 in
  let spawned, spawned_log = campaign 2 in
  check "some programs translate and some skip" true
    (inline.Harness.translated > 0 && inline.Harness.skipped > 0);
  check_int "translated" inline.Harness.translated spawned.Harness.translated;
  check_int "skipped" inline.Harness.skipped spawned.Harness.skipped;
  check "skip reasons" true
    (inline.Harness.skip_reasons = spawned.Harness.skip_reasons);
  check "failures" true (inline.Harness.failures = spawned.Harness.failures);
  check "log lines" true (inline_log <> [] && inline_log = spawned_log)

(* ---------------- regression corpus ---------------- *)

let test_corpus_replay () =
  let verdicts = Harness.replay_corpus ~dir:"corpus" () in
  check "corpus is non-trivial" true (List.length verdicts >= 10);
  let translated =
    List.filter
      (fun (_, v) -> match v with Oracle.Translated _ -> true | _ -> false)
      verdicts
  in
  List.iter
    (fun (file, verdict) ->
      match verdict with
      | Oracle.Translated _ | Oracle.Skipped _ -> ()
      | Oracle.Diverged d ->
          Alcotest.failf "corpus %s diverged: %a" file Oracle.pp_divergence d)
    verdicts;
  check "at least ten corpus programs translate end to end" true
    (List.length translated >= 10)

(* ---------------- shrinker ---------------- *)

let shrinker_source =
  "int f(List<Integer> xs) {\n  int s = 0;\n  int t = 0;\n  for (int x : \
   xs) {\n    s = s + x;\n    t = t + 1;\n  }\n  return s;\n}\n"

let test_shrinker_minimizes () =
  let prog = Parser.parse_program shrinker_source in
  (* a syntactic stand-in for "still fails": the accumulation we care
     about must survive; everything else is fair game *)
  let keeps_accumulation p =
    let src = Pp.program_to_string p in
    let needle = "s = s + x" in
    let n = String.length needle in
    let rec contains i =
      i + n <= String.length src && (String.sub src i n = needle || contains (i + 1))
    in
    contains 0
  in
  let small = Shrink.minimize ~still_fails:keeps_accumulation prog in
  check "minimized program is well-formed" true (Shrink.well_formed small);
  check "minimized program still satisfies the predicate" true
    (keeps_accumulation small);
  check "minimizer removed the unrelated accumulator" true
    (String.length (Pp.program_to_string small)
    < String.length (Pp.program_to_string prog))

let test_shrinker_keeps_failing_input_well_formed () =
  (* when nothing smaller satisfies the predicate, minimize must return
     the input itself *)
  let prog = Parser.parse_program "int f() {\n  return 0;\n}\n" in
  let small = Shrink.minimize ~still_fails:(fun _ -> false) prog in
  check_str "irreducible input is returned unchanged"
    (Pp.program_to_string prog)
    (Pp.program_to_string small)

(* ---------------- qcheck: tracing is transparent ---------------- *)

module Obs = Casper_obs.Obs
module Cegis = Casper_synth.Cegis
module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment

let synth_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

let stats_key (s : Cegis.stats) =
  ( s.Cegis.candidates_tried, s.Cegis.cegis_iterations, s.Cegis.tp_failures,
    s.Cegis.classes_explored, s.Cegis.timed_out )

(* For any generated program: synthesis under a traced context (virtual
   clock) yields a well-nested, non-empty span tree, and exactly the
   same search outcome as the untraced run — observability must never
   steer the pipeline. *)
let qcheck_tracing_transparent =
  QCheck.Test.make ~count:25
    ~name:"tracing is inert and well-nested on generated programs"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000))
    (fun seed ->
      let g = Gen.program (Rng.create seed) in
      let frags =
        An.fragments_of_program g.Gen.prog ~suite:"difftest"
          ~benchmark:g.Gen.shape
      in
      match List.filter (fun f -> f.F.unsupported = None) frags with
      | [] -> true
      | frag :: _ ->
          let plain =
            Cegis.find_summary ~config:synth_config g.Gen.prog frag
          in
          let obs =
            Obs.create ~clock:(Obs.virtual_clock ~seed ()) ()
          in
          let traced =
            Cegis.find_summary ~obs ~config:synth_config g.Gen.prog frag
          in
          Obs.well_formed obs
          && Obs.tree obs <> []
          && stats_key plain.Cegis.stats = stats_key traced.Cegis.stats
          && List.map
               (fun (s : Cegis.solution) -> s.Cegis.summary)
               plain.Cegis.solutions
             = List.map
                 (fun (s : Cegis.solution) -> s.Cegis.summary)
                 traced.Cegis.solutions)

(* ---------------- the engine-identity comparator ---------------- *)

(* Two runs of one plan over a NaN value read alike: outputs compare by
   Value.equal, under which NaN equals NaN, where polymorphic equality
   would call them different. A changed output or stage still shows. *)
let test_run_divergence_nan () =
  let module Engine = Mapreduce.Engine in
  let module Value = Casper_common.Value in
  let plan = Mapreduce.Plan.(data "d" |>> reduce_by_key (fun a _ -> a)) in
  let datasets =
    [ ("d", [ Value.Tuple [ Value.Int 1; Value.Float Float.nan ] ]) ]
  in
  let run () =
    Engine.run_plan ~cluster:Mapreduce.Cluster.spark ~datasets plan
  in
  let base = run () and r = run () in
  check "polymorphic equality sees a difference" true
    (r.Engine.output <> base.Engine.output);
  check "runs over NaN agree" true (Oracle.run_divergence ~base r = None);
  check "a changed output shows" true
    (Oracle.run_divergence ~base { r with Engine.output = [] }
    = Some "outputs");
  check "a changed stage shows" true
    (Oracle.run_divergence ~base { r with Engine.stages = [] }
    = Some "stage accounting")

(* ---------------- suite ---------------- *)

let suite =
  [
    ( "difftest.printer",
      [
        Alcotest.test_case "suite sources round-trip" `Quick
          test_roundtrip_suites;
        Alcotest.test_case "generated programs round-trip" `Quick
          test_roundtrip_generated;
      ] );
    ( "difftest.oracle",
      [
        Alcotest.test_case "smoke campaign finds no divergence" `Slow
          test_smoke_campaign;
        Alcotest.test_case "regression corpus replays clean" `Slow
          test_corpus_replay;
        Alcotest.test_case "engine runs over NaN compare equal" `Quick
          test_run_divergence_nan;
      ] );
    ( "difftest.campaign",
      [
        Alcotest.test_case "report identical inline and on 2 spawned domains"
          `Slow test_campaign_jobs_identity;
      ] );
    ( "difftest.shrink",
      [
        Alcotest.test_case "minimizes while preserving the failure" `Quick
          test_shrinker_minimizes;
        Alcotest.test_case "irreducible input unchanged" `Quick
          test_shrinker_keeps_failing_input_well_formed;
      ] );
    ( "difftest.obs",
      [ Testenv.qcheck qcheck_tracing_transparent ] );
  ]
