(** casperc — the Casper command-line compiler.

    Reads a sequential MiniJava source file, identifies translatable
    code fragments, synthesizes and verifies program summaries, and
    prints the generated MapReduce code for the selected target
    framework, mirroring the tool's workflow in §2.3:

      casperc input.java --target spark
      casperc input.java --target flink --verbose
      casperc input.java --summaries-only *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Cegis = Casper_synth.Cegis
module Casper = Casper_core.Casper
module Obs = Casper_obs.Obs
module Exec = Casper_exec.Exec
open Cmdliner

let pp_analysis ppf (frag : F.t) =
  (* the Appendix D program-analyzer output table *)
  let scalars =
    String.concat ", "
      (List.map
         (fun (v, t) -> Fmt.str "%s: %s" v (Minijava.Ast.ty_to_string t))
         frag.F.input_scalars)
  in
  let outputs =
    String.concat ", "
      (List.map
         (fun (v, t, _) -> Fmt.str "%s: %s" v (Minijava.Ast.ty_to_string t))
         frag.F.outputs)
  in
  Fmt.pf ppf
    "@[<v>Datasets     %s@,Input Vars   %s@,Output Vars  %s@,Constants         [%s]@,Operators    %s@,Methods      %s@,Features     %s@]"
    (String.concat ", " (F.datasets_of_schema frag.F.schema))
    scalars outputs
    (String.concat "; "
       (List.map Casper_common.Value.to_string frag.F.constants))
    (String.concat ", "
       (List.map Ir.binop_str frag.F.operators))
    (String.concat ", " frag.F.methods)
    (String.concat ", " (List.map F.feature_name frag.F.features))

(* The --trace execute stage: run each translated fragment's best
   summary on the simulated cluster over a generated entry state, so the
   exported trace covers the full analyze → synthesize → verify →
   execute pipeline. Execution goes through an Exec.Session — the
   serving front door — at concurrency 1, where jobs run on the owner
   domain and the engine's spans keep nesting under each fragment's
   "execute" span. A job that fails or is
   cancelled, and a fragment whose execution faults, is reported on
   stderr with its fragment id; the result is how many were. *)
let execute_traced (exec_config : Exec.Config.t) (obs : Obs.ctx)
    (report : Casper.report) : int =
  let cluster = Mapreduce.Cluster.spark in
  let prog = report.Casper.program in
  let config =
    {
      exec_config with
      Exec.Config.obs = Some obs;
      cluster = Some cluster;
      concurrency = Some 1;
    }
  in
  let failed = ref 0 in
  let fail (frag : F.t) fmt =
    incr failed;
    Fmt.epr ("casperc: execute %s: " ^^ fmt ^^ "@.") frag.F.frag_id
  in
  Exec.Session.with_session ~config @@ fun session ->
  List.iter
    (fun (t : Casper.translation) ->
      match t.Casper.survivors with
      | [] -> ()
      | best :: _ -> (
          let frag = t.Casper.frag in
          try
            let dom = Casper_verify.Statesgen.full_domain frag in
            let env =
              List.nth
                (Casper_verify.Statesgen.gen_batch ~seed:11 ~count:3 dom
                   prog frag)
                2
            in
            let entry = Casper_vcgen.Vc.entry_of_params prog frag env in
            Obs.span obs ~args:[ ("fragment", frag.F.frag_id) ] "execute"
            @@ fun () ->
            let translated =
              Casper_codegen.Compile.compile prog frag entry
                best.Cegis.summary
            in
            let datasets =
              Casper_codegen.Runner.datasets_of prog frag entry
            in
            let job =
              Exec.Session.submit session ~datasets
                translated.Casper_codegen.Compile.plan
            in
            match Exec.Session.await session job with
            | Exec.Session.Completed _ -> ()
            | Exec.Session.Cancelled why -> fail frag "job cancelled (%s)" why
            | Exec.Session.Failed m -> fail frag "job failed: %s" m
          with Minijava.Interp.Runtime_error m ->
            fail frag "runtime error: %s" m))
    report.Casper.translations;
  !failed

let compile_file path target verbose summaries_only analysis_only budget
    trace =
  (* the environment is read here, once *)
  let exec_config = Exec.Config.of_env () in
  let src =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let config = { Cegis.default_config with Cegis.max_candidates = budget } in
  let benchmark = Filename.remove_extension (Filename.basename path) in
  if analysis_only then (
    (* analysis alone: no synthesis pass *)
    let prog = Minijava.Parser.parse_program src in
    Minijava.Typecheck.check_program prog;
    List.iter
      (fun (frag : F.t) ->
        Fmt.pr "--- %s (program analyzer output, Appendix D) ---@.%a@.@."
          frag.F.frag_id pp_analysis frag)
      (Casper_analysis.Analyze.fragments_of_program prog ~suite:"cli"
         ~benchmark);
    0)
  else
  let obs = match trace with None -> Obs.null | Some _ -> Obs.create () in
  match
    Casper.translate_source ~obs ~config ~suite:"cli" ~benchmark src
  with
  | exception Minijava.Lexer.Lex_error m ->
      Fmt.epr "lex error: %s@." m;
      1
  | exception Minijava.Parser.Parse_error m ->
      Fmt.epr "parse error: %s@." m;
      1
  | exception Minijava.Typecheck.Type_error m ->
      Fmt.epr "type error: %s@." m;
      1
  | report ->
      let total = List.length report.Casper.translations in
      let ok =
        List.length (List.filter Casper.translated report.Casper.translations)
      in
      Fmt.pr "== %s: %d code fragment(s) identified, %d translated ==@.@."
        benchmark total ok;
      List.iter
        (fun (t : Casper.translation) ->
          match Casper.failure_reason t with
          | Some reason ->
              Fmt.pr "--- %s: NOT TRANSLATED (%s)@.@." t.Casper.frag.F.frag_id
                reason
          | None ->
              let best = List.hd t.Casper.survivors in
              Fmt.pr "--- %s ---@." t.Casper.frag.F.frag_id;
              if verbose then begin
                Fmt.pr "verification conditions:@.%a@.@." Vc_pp.pp
                  t.Casper.frag;
                Fmt.pr "synthesis: %d candidates, %d CEGIS iterations, %d \
                        theorem-prover rejections, %.2fs@."
                  t.Casper.outcome.Cegis.stats.Cegis.candidates_tried
                  t.Casper.outcome.Cegis.stats.Cegis.cegis_iterations
                  t.Casper.outcome.Cegis.stats.Cegis.tp_failures
                  t.Casper.outcome.Cegis.stats.Cegis.elapsed_s
              end;
              Fmt.pr "@[<v2>program summary (cost %.3g, %s):@,%a@]@.@."
                best.Cegis.static_cost
                (if best.Cegis.comm_assoc then "commutative-associative"
                 else "needs groupByKey")
                Ir.pp_summary best.Cegis.summary;
              if not summaries_only then begin
                let src =
                  match target with
                  | "spark" -> t.Casper.spark_src
                  | "flink" -> t.Casper.flink_src
                  | "hadoop" -> t.Casper.hadoop_src
                  | _ -> None
                in
                match src with
                | Some code -> Fmt.pr "%s@." code
                | None -> Fmt.epr "unknown target %s@." target
              end;
              if List.length t.Casper.survivors > 1 then
                Fmt.pr
                  "(%d semantically-equivalent implementations kept for \
                   runtime selection)@.@."
                  (List.length t.Casper.survivors))
        report.Casper.translations;
      match trace with
      | None -> 0
      | Some file ->
          let failed = execute_traced exec_config obs report in
          Obs.write_trace file obs;
          Fmt.pr "trace written to %s (metrics: %s)@." file
            (Filename.remove_extension file ^ ".metrics.json");
          if failed = 0 then 0
          else (
            Fmt.epr "casperc: %d traced execution(s) failed@." failed;
            1)

let path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Sequential Java (MiniJava subset) source file.")

let target_arg =
  Arg.(
    value & opt string "spark"
    & info [ "t"; "target" ] ~docv:"TARGET"
        ~doc:"Target framework: spark, hadoop or flink.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print synthesis statistics.")

let analysis_arg =
  Arg.(
    value & flag
    & info [ "analysis" ]
        ~doc:"Print the program analyzer's outputs (the Appendix D table) \
              and exit.")

let summaries_arg =
  Arg.(
    value & flag
    & info [ "summaries-only" ]
        ~doc:"Print verified program summaries without generating code.")

let budget_arg =
  Arg.(
    value & opt int 60_000
    & info [ "budget" ] ~docv:"N"
        ~doc:"Synthesis candidate budget (the timeout knob).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a pipeline trace (analysis, synthesis, verification, \
              code generation, simulated execution) and write it to $(docv) \
              in Chrome trace_event JSON; a flat metrics JSON lands next to \
              it. Open the trace at chrome://tracing or ui.perfetto.dev.")

let cmd =
  let doc = "translate sequential Java loop nests into MapReduce programs" in
  Cmd.v
    (Cmd.info "casperc" ~version:"1.0.0" ~doc)
    Term.(
      const compile_file $ path_arg $ target_arg $ verbose_arg
      $ summaries_arg $ analysis_arg $ budget_arg $ trace_arg)

let () = exit (Cmd.eval' cmd)
