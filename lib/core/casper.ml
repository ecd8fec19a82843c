(** Casper, end to end (paper Figure 2).

    [translate_program] drives the full compilation pipeline over a
    MiniJava program: the program analyzer identifies candidate code
    fragments and builds their search-space descriptions; the summary
    generator runs the incremental CEGIS search with two-phase
    verification; verified summaries are cost-pruned, and the code
    generator produces Spark/Hadoop/Flink source plus executable plans
    and the runtime monitor data. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Cegis = Casper_synth.Cegis
module Obs = Casper_obs.Obs
module Runner = Casper_codegen.Runner
module Value = Casper_common.Value

type translation = {
  frag : F.t;
  outcome : Cegis.outcome;
  survivors : Cegis.solution list;
      (** verified summaries that survive static cost dominance pruning
          (§5.2); several survive only when their relative cost depends
          on the data *)
  spark_src : string option;  (** generated source for the best summary *)
  flink_src : string option;
  hadoop_src : string option;
}

type report = {
  program : Minijava.Ast.program;
  suite : string;
  benchmark : string;
  translations : translation list;
}

let translated (t : translation) : bool = not (List.is_empty t.survivors)

let failure_reason (t : translation) : string option =
  match (t.frag.F.unsupported, t.survivors) with
  | Some r, _ -> Some (F.unsupported_to_string r)
  | None, [] ->
      Some
        (if t.outcome.Cegis.stats.Cegis.timed_out then
           "synthesis timed out"
         else "no verifiable summary in the search space")
  | None, _ -> None

(** Static pruning: drop summaries dominated at every guard-probability
    assignment by a cheaper verified summary. *)
let prune_solutions (prog : Minijava.Ast.program) (frag : F.t)
    (sols : Cegis.solution list) : Cegis.solution list =
  match sols with
  | [] | [ _ ] -> sols
  | _ ->
      let tenv = Cegis.tenv_of_frag prog frag in
      let record_ty = Casper_synth.Lift.record_ty_of frag in
      let pairs = List.map (fun s -> (s.Cegis.summary, s)) sols in
      Casper_cost.Cost.prune_dominated tenv record_ty
        (fun _ -> 1_000_000.0)
        pairs
      |> List.map snd

let translate_fragment ?(obs = Obs.null) ?(config = Cegis.default_config)
    (prog : Minijava.Ast.program) (frag : F.t) : translation =
  Obs.span obs ~args:[ ("fragment", frag.F.frag_id) ] "fragment" @@ fun () ->
  let outcome = Cegis.find_summary ~obs ~config prog frag in
  let survivors =
    Obs.span obs "cost-prune" (fun () ->
        prune_solutions prog frag outcome.Cegis.solutions)
  in
  let best = match survivors with s :: _ -> Some s | [] -> None in
  let src target (f : ?ca:bool -> F.t -> Ir.summary -> string) =
    Option.map
      (fun (s : Cegis.solution) ->
        Obs.span obs ~args:[ ("target", target) ] "codegen" (fun () ->
            f ~ca:s.Cegis.comm_assoc frag s.Cegis.summary))
      best
  in
  {
    frag;
    outcome;
    survivors;
    spark_src = src "spark" Casper_codegen.Emit_source.spark;
    flink_src = src "flink" Casper_codegen.Emit_source.flink;
    hadoop_src = src "hadoop" Casper_codegen.Emit_source.hadoop;
  }

(* Each fragment's search is independent (Fig. 5 runs findSummary once
   per fragment), so the fragments of one program are translated
   concurrently, one domain per supported fragment up to the host's core
   count. The domains exit as their last fragment ends rather than wait
   for work (DESIGN.md §10). Each fragment records into a child trace
   context made on the domain that runs it; the children are grafted in
   fragment order, up to and including the first that raised, which is
   the trace a sequential run leaves. *)
let translate_fragments ?(obs = Obs.null) ?config
    (prog : Minijava.Ast.program) (frags : F.t list) : translation list =
  let supported =
    List.length (List.filter (fun f -> Option.is_none f.F.unsupported) frags)
  in
  let jobs = max 1 (min (Domain.recommended_domain_count ()) supported) in
  let results =
    Casper_par.Par.spawn_map ~jobs
      (fun frag ->
        let child = Obs.fork obs in
        ( child,
          match translate_fragment ~obs:child ?config prog frag with
          | t -> Ok t
          | exception e -> Error e ))
      frags
  in
  List.map
    (fun (child, r) ->
      Obs.graft obs child;
      match r with Ok t -> t | Error e -> raise e)
    results

let translate_program ?(obs = Obs.null) ?config ~suite ~benchmark
    (program : Minijava.Ast.program) : report =
  let frags =
    Casper_analysis.Analyze.fragments_of_program ~obs program ~suite
      ~benchmark
  in
  {
    program;
    suite;
    benchmark;
    translations = translate_fragments ~obs ?config program frags;
  }

(** Parse, type-check, analyze and translate a whole benchmark source. *)
let translate_source ?(obs = Obs.null) ?config ~suite ~benchmark
    (src : string) : report =
  let program =
    Obs.span obs "parse" (fun () -> Minijava.Parser.parse_program src)
  in
  Obs.span obs "typecheck" (fun () ->
      Minijava.Typecheck.check_program program);
  translate_program ~obs ?config ~suite ~benchmark program

type run = {
  frag : F.t;
  entry : Minijava.Interp.env;
  seq_outputs : (string * Value.t) list;
  seq_s : float;
  result : Runner.result;
  agree : bool;
}

(* The §7 measurement: the cheapest survivor's plan and the sequential
   original on the same entry state. A state on which the original
   faults is no input for the fragment, as in the verifier
   ([Verifier.check_batch]); every other exception is the caller's. *)
let run ?config ~cluster ~scale (prog : Minijava.Ast.program)
    (env : Minijava.Interp.env) (translations : translation list) : run list
    =
  List.filter_map
    (fun (t : translation) ->
      match t.survivors with
      | [] -> None
      | best :: _ -> (
          let frag = t.frag in
          match
            let entry = Casper_vcgen.Vc.entry_of_params prog frag env in
            (entry, Runner.run_sequential ~scale prog frag entry)
          with
          | exception Minijava.Interp.Runtime_error _ -> None
          | entry, (seq_outputs, seq_s) ->
              let result =
                Runner.run_summary ?config ~cluster ~scale prog frag entry
                  best.Cegis.summary
              in
              Some
                {
                  frag;
                  entry;
                  seq_outputs;
                  seq_s;
                  result;
                  agree =
                    Runner.outputs_agree frag seq_outputs result.Runner.outputs;
                }))
    translations
