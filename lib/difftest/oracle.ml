module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Cegis = Casper_synth.Cegis
module Verifier = Casper_verify.Verifier
module Statesgen = Casper_verify.Statesgen
module Vc = Casper_vcgen.Vc
module Compile = Casper_codegen.Compile
module Runner = Casper_codegen.Runner
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Value = Casper_common.Value
module Obs = Casper_obs.Obs
module Exec = Casper_exec.Exec
open Minijava

type config = {
  backends : Cluster.t list;
  inputs : int;  (** fresh program states checked per program *)
  input_seed : int;
  synth : Cegis.config;
      (** the search configuration of both synthesis runs *)
}

let default_config ?(seed = 0) () =
  {
    backends = [ Cluster.spark; Cluster.hadoop; Cluster.flink ];
    inputs = 5;
    input_seed = seed;
    synth = { Cegis.default_config with Cegis.max_candidates = 60_000 };
  }

type divergence = {
  stage : string;  (** which boundary disagreed (or crashed) *)
  detail : string;
  source : string;  (** compilable MiniJava source of the program *)
}

type verdict =
  | Translated of string  (** fragment id that went through cleanly *)
  | Skipped of string
  | Diverged of divergence

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "stage %s: %s@.--- source ---@.%s" d.stage d.detail d.source

exception Div of divergence

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let render_env (env : Interp.env) : string =
  String.concat "; "
    (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) env)

let render_outputs (outs : (string * Value.t) list) : string =
  render_env outs

(* engine runs take explicit configs only: each check pins the knobs it
   compares, so the caller's environment cannot move a verdict *)
let with_budget b =
  { Exec.Config.default with Exec.Config.memory_budget = Some b }

let run_divergence ~(base : Engine.run) (r : Engine.run) : string option =
  if not (List.equal Value.equal r.Engine.output base.Engine.output) then
    Some "outputs"
  else if r.Engine.stages <> base.Engine.stages then Some "stage accounting"
  else None

let solutions_equal (a : Cegis.solution list) (b : Cegis.solution list) : bool
    =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Cegis.solution) (y : Cegis.solution) ->
         x.Cegis.summary = y.Cegis.summary
         && x.klass = y.klass
         && x.comm_assoc = y.comm_assoc
         && Float.equal x.static_cost y.static_cost)
       a b

let stats_equal (a : Cegis.stats) (b : Cegis.stats) : bool =
  a.Cegis.candidates_tried = b.Cegis.candidates_tried
  && a.cegis_iterations = b.cegis_iterations
  && a.tp_failures = b.tp_failures
  && a.classes_explored = b.classes_explored
  && a.timed_out = b.timed_out

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

let check_parsed (cfg : config) ~(name : string) (prog : Ast.program) :
    verdict =
  let src = Pp.program_to_string prog in
  let fail stage fmt =
    Fmt.kstr (fun detail -> raise (Div { stage; detail; source = src })) fmt
  in
  try
    (* ---- printer/parser boundary: printing must be a parse fixed
       point, so every reproducer we report really is the program the
       pipeline saw ---- *)
    let prog =
      try Parser.parse_program src
      with Parser.Parse_error m | Lexer.Lex_error m ->
        fail "printer" "printed program does not re-parse: %s" m
    in
    let src2 = Pp.program_to_string prog in
    if not (String.equal src src2) then
      fail "printer" "print . parse . print is not a fixed point:\n%s" src2;
    (try Typecheck.check_program prog
     with Typecheck.Type_error m -> fail "typecheck" "%s" m);

    (* ---- fragment analysis ---- *)
    let frags =
      An.fragments_of_program prog ~suite:"difftest" ~benchmark:name
    in
    match List.filter (fun f -> f.F.unsupported = None) frags with
    | [] ->
        Skipped
          (match frags with
          | [] -> "no fragment detected"
          | f :: _ -> (
              match f.F.unsupported with
              | Some u -> F.unsupported_to_string u
              | None -> "unsupported"))
    | frag :: _ -> (
        (* ---- synthesis, untraced and then traced under a seeded
           virtual clock: enabling tracing must not perturb the search,
           and the recorded spans must come out well-nested ---- *)
        let untraced = Cegis.find_summary ~config:cfg.synth prog frag in
        let obs =
          Obs.create ~clock:(Obs.virtual_clock ~seed:cfg.input_seed ()) ()
        in
        let outcome = Cegis.find_summary ~obs ~config:cfg.synth prog frag in
        if not (stats_equal untraced.Cegis.stats outcome.Cegis.stats) then
          fail "obs"
            "search stats differ with tracing on vs off (tried %d vs %d, \
             iterations %d vs %d)"
            untraced.Cegis.stats.Cegis.candidates_tried
            outcome.Cegis.stats.Cegis.candidates_tried
            untraced.Cegis.stats.Cegis.cegis_iterations
            outcome.Cegis.stats.Cegis.cegis_iterations;
        if
          not
            (solutions_equal untraced.Cegis.solutions outcome.Cegis.solutions)
        then fail "obs" "solutions differ with tracing on vs off";
        if not (Obs.well_formed obs) then
          fail "obs" "synthesis left unclosed spans on the trace stack";
        if Obs.tree obs = [] then
          fail "obs" "traced synthesis recorded no spans";
        match outcome.Cegis.solutions with
        | [] ->
            Skipped
              (if outcome.Cegis.stats.Cegis.timed_out then
                 "synthesis budget exhausted"
               else "no verifiable summary in the grammar")
        | best :: _ ->
            let summary = best.Cegis.summary in

            (* ---- verification boundary, on states the search never
               saw ---- *)
            let envs =
              Statesgen.gen_batch ~seed:cfg.input_seed ~count:cfg.inputs
                (Statesgen.bounded_domain frag) prog frag
            in
            (match Verifier.check_batch prog frag summary envs with
            | Verifier.Valid -> ()
            | Verifier.Counterexample env ->
                fail "verify" "verified summary refuted on fresh state: %s"
                  (render_env env)
            | Verifier.Invalid_summary m ->
                fail "verify" "verified summary not evaluable: %s" m);

            (* ---- execution boundaries, per state ---- *)
            List.iteri
              (fun ei env ->
                let prepared =
                  (* a state the sequential original faults on (runtime
                     error, step budget) checks nothing — skip it, as
                     the verifier does *)
                  try
                    let entry = Vc.entry_of_params prog frag env in
                    let seq, _ =
                      Runner.run_sequential ~scale:1.0 prog frag entry
                    in
                    Some (entry, seq)
                  with Interp.Runtime_error _ -> None
                in
                match prepared with
                | None -> ()
                | Some (entry, seq) ->
                    (* every backend against the reference, and against
                       each other *)
                    let per_backend =
                      List.map
                        (fun (cluster : Cluster.t) ->
                          let r =
                            Runner.run_summary ~cluster ~scale:1.0 prog frag
                              entry summary
                          in
                          if
                            not
                              (Runner.outputs_agree frag seq r.Runner.outputs)
                          then
                            fail
                              ("backend:" ^ cluster.Cluster.name)
                              "state %d: sequential {%s} vs translated {%s}"
                              ei (render_outputs seq)
                              (render_outputs r.Runner.outputs);
                          (cluster.Cluster.name, r.Runner.outputs))
                        cfg.backends
                    in
                    (match per_backend with
                    | (n0, o0) :: rest ->
                        List.iter
                          (fun (n, o) ->
                            if not (Runner.outputs_agree frag o0 o) then
                              fail "cross-backend"
                                "state %d: %s {%s} vs %s {%s}" ei n0
                                (render_outputs o0) n (render_outputs o))
                          rest
                    | [] -> ());

                    (* engine identity, first state only (the engine
                       path is state-independent): on every backend the
                       plan run out of core, against dataset caches and
                       through serving sessions must read as the plain
                       in-memory uncached run *)
                    if ei = 0 then begin
                      let plan =
                        (Compile.compile prog frag entry summary).Compile.plan
                      in
                      let datasets = Runner.datasets_of prog frag entry in
                      List.iter
                        (fun (cluster : Cluster.t) ->
                          let run config =
                            Engine.run_plan ~config ~cluster ~datasets plan
                          in
                          let base = run Exec.Config.default in
                          let tag stage = stage ^ ":" ^ cluster.Cluster.name in
                          let check stage what r =
                            match run_divergence ~base r with
                            | None -> ()
                            | Some d -> fail (tag stage) "%s changed %s" what d
                          in
                          (* out-of-core shuffle: a ~1 KB budget forces
                             every grouped stage to spill sorted runs
                             (DESIGN.md §12) *)
                          check "spill" "a 1 KB budget"
                            (run (with_budget 1024));
                          (* dataset cache: a tiny budget forces eviction
                             churn on every insert, and an unbounded
                             cache serves the second run (DESIGN.md §13) *)
                          let cached c =
                            run
                              {
                                Exec.Config.default with
                                Exec.Config.cache = Some c;
                              }
                          in
                          let tiny = Engine.make_cache ~budget:64 () in
                          check "cache" "a 64 B cache (cold)" (cached tiny);
                          check "cache" "a 64 B cache (warm)" (cached tiny);
                          let unbounded = Engine.make_cache () in
                          check "cache" "an unbounded cache (cold)"
                            (cached unbounded);
                          check "cache" "an unbounded cache (hot)"
                            (cached unbounded);
                          (* serving sessions: the plan submitted twice at
                             concurrency 1 and 4 over one shared cache, so
                             the second job is served, whatever the
                             dispatch interleaving (DESIGN.md §14) *)
                          List.iter
                            (fun conc ->
                              let config =
                                {
                                  Exec.Config.default with
                                  Exec.Config.concurrency = Some conc;
                                  cache = Some (Engine.make_cache ());
                                  cluster = Some cluster;
                                }
                              in
                              Exec.Session.with_session ~config (fun s ->
                                  List.init 2 (fun _ ->
                                      Exec.Session.submit s ~datasets plan)
                                  |> List.map (Exec.Session.await s))
                              |> List.iteri (fun i outcome ->
                                     let job =
                                       Fmt.str "job %d at concurrency %d" i
                                         conc
                                     in
                                     match outcome with
                                     | Exec.Session.Completed r ->
                                         check "session" job r
                                     | Exec.Session.Cancelled r ->
                                         fail (tag "session")
                                           "%s reported spurious \
                                            cancellation: %s"
                                           job r
                                     | Exec.Session.Failed m ->
                                         fail (tag "session") "%s failed: %s"
                                           job m))
                            [ 1; 4 ])
                        cfg.backends
                    end)
              envs;
            Translated frag.F.frag_id)
  with
  | Div d -> Diverged d
  | Vc.Vc_error m -> Diverged { stage = "vcgen"; detail = m; source = src }
  | Compile.Codegen_error m ->
      Diverged { stage = "codegen"; detail = m; source = src }
  | Engine.Engine_error m ->
      Diverged { stage = "engine"; detail = m; source = src }

let check_source (cfg : config) ~(name : string) (src : string) : verdict =
  match Parser.parse_program src with
  | prog -> check_parsed cfg ~name prog
  | exception (Parser.Parse_error m | Lexer.Lex_error m) ->
      Diverged { stage = "parse"; detail = m; source = src }
