(** difftest — differential fuzzing of the whole Casper pipeline.

    Generates random well-typed MiniJava loop nests and checks every
    stage boundary of the pipeline against the sequential reference:
    printer/parser round trip, synthesis with the fast path off and on,
    verification on fresh states, and execution on every backend, out of
    core, against dataset caches and through serving sessions.

      difftest --count 200 --seed 42
      difftest --count 500 --seed $RUN_ID --minimize --out repros
      difftest --corpus test/corpus           # replay the regression corpus

    Exit status is non-zero iff a divergence was found (campaign mode)
    or a corpus program no longer passes (replay mode). *)

module Cluster = Mapreduce.Cluster
module Par = Casper_par.Par
open Cmdliner

let backends_of = function
  | "all" -> Ok [ Cluster.spark; Cluster.hadoop; Cluster.flink ]
  | "spark" -> Ok [ Cluster.spark ]
  | "hadoop" -> Ok [ Cluster.hadoop ]
  | "flink" -> Ok [ Cluster.flink ]
  | s -> Error (Fmt.str "unknown backend %s (spark|hadoop|flink|all)" s)

let print_failure (fl : Difftest.Harness.failure) =
  Fmt.pr "@.=== divergence #%d (shape %s) ===@.%a@." fl.index fl.shape
    Difftest.Oracle.pp_divergence fl.divergence;
  match fl.minimized with
  | Some src -> Fmt.pr "--- minimized ---@.%s@." src
  | None -> ()

let run seed count backend minimize corpus out budget jobs =
  match backends_of backend with
  | Error m ->
      Fmt.epr "%s@." m;
      2
  | Ok backends -> (
      let config =
        {
          (Difftest.Oracle.default_config ~seed ()) with
          Difftest.Oracle.backends;
          synth =
            {
              Casper_synth.Cegis.default_config with
              Casper_synth.Cegis.max_candidates = budget;
            };
        }
      in
      match corpus with
      | Some dir ->
          let results = Difftest.Harness.replay_corpus ~config ~dir () in
          let bad = ref 0 in
          List.iter
            (fun (file, verdict) ->
              match verdict with
              | Difftest.Oracle.Translated frag ->
                  Fmt.pr "%-28s ok (%s)@." file frag
              | Difftest.Oracle.Skipped why ->
                  Fmt.pr "%-28s skipped: %s@." file why
              | Difftest.Oracle.Diverged d ->
                  incr bad;
                  Fmt.pr "%-28s DIVERGED@.%a@." file
                    Difftest.Oracle.pp_divergence d)
            results;
          Fmt.pr "corpus: %d programs, %d divergent@." (List.length results)
            !bad;
          if !bad > 0 then 1 else 0
      | None ->
          let report =
            Difftest.Harness.run_campaign
              ~log:(fun m -> Fmt.pr "%s@." m)
              ~config ~jobs:(Par.recommended_jobs jobs) ~seed ~count ~minimize
              ()
          in
          Fmt.pr
            "@.campaign seed %d: %d programs — %d translated, %d skipped, \
             %d divergent@."
            seed report.total report.translated report.skipped
            (List.length report.failures);
          List.iter
            (fun (reason, n) -> Fmt.pr "  skipped %4d × %s@." n reason)
            report.skip_reasons;
          List.iter print_failure report.failures;
          List.iter
            (fun fl ->
              let path = Difftest.Harness.write_repro ~dir:out fl in
              Fmt.pr "reproducer written to %s@." path)
            report.failures;
          if report.failures <> [] then 1 else 0)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Number of generated programs.")

let backend_arg =
  Arg.(
    value & opt string "all"
    & info [ "backend" ] ~docv:"B"
        ~doc:"Backend(s) to execute on: spark, hadoop, flink or all.")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Shrink each diverging program to a minimal reproducer.")

let corpus_arg =
  Arg.(
    value & opt (some dir) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Replay every *.mj file in $(docv) instead of fuzzing.")

let out_arg =
  Arg.(
    value & opt string "difftest-repros"
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for reproducer files.")

let budget_arg =
  Arg.(
    value & opt int 60_000
    & info [ "budget" ] ~docv:"N" ~doc:"Synthesis candidate budget.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "%S is not a positive integer" s))
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Domains per wave, at least 1 and clamped to the host's \
              cores: programs are checked in parallel waves of 4×$(docv) \
              (default 1). The campaign report is byte-identical at any \
              value.")

let cmd =
  let doc = "differential fuzzing of the Casper pipeline" in
  Cmd.v
    (Cmd.info "difftest" ~version:"1.0.0" ~doc)
    Term.(
      const run $ seed_arg $ count_arg $ backend_arg $ minimize_arg
      $ corpus_arg $ out_arg $ budget_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
