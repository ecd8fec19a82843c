(** Shared machinery for the experiment harness: cached translation of
    benchmarks, their workload samples, and the benchmark-level speedup
    of their runs ({!Casper_core.Casper.run}). *)

module F = Casper_analysis.Fragment
module Cegis = Casper_synth.Cegis
module Casper = Casper_core.Casper
module Runner = Casper_codegen.Runner
module Rng = Casper_common.Rng

let bench_config = { Cegis.default_config with Cegis.max_candidates = 60_000 }

(* translation cache: synthesis runs once per benchmark across all
   experiments *)
let cache : (string, Casper.report) Hashtbl.t = Hashtbl.create 64

let translate (b : Casper_suites.Suite.benchmark) : Casper.report =
  match Hashtbl.find_opt cache b.name with
  | Some r -> r
  | None ->
      let r =
        Casper.translate_source ~config:bench_config ~suite:b.suite
          ~benchmark:b.name b.source
      in
      Hashtbl.replace cache b.name r;
      r

let find_translation (b : Casper_suites.Suite.benchmark) (frag_id : string) :
    Casper.translation =
  let r = translate b in
  List.find
    (fun (t : Casper.translation) ->
      String.equal t.Casper.frag.F.frag_id frag_id)
    r.Casper.translations

(** A benchmark's translation, its workload sample and the scale from
    that sample to the nominal input size. *)
let setup (b : Casper_suites.Suite.benchmark) :
    Casper.report * Minijava.Interp.env * float =
  let report = translate b in
  let sample = b.workload.Casper_suites.Suite.sample_n in
  let env = b.workload.Casper_suites.Suite.gen (Rng.create 2024) ~n:sample in
  (report, env, Casper_suites.Suite.scale_of b ~sample)

(** Benchmark-level speedup: total sequential over total translated time
    of the runs, each times the workload's pass count. *)
let speedup (b : Casper_suites.Suite.benchmark) (runs : Casper.run list) :
    float =
  let passes = float_of_int b.workload.Casper_suites.Suite.passes in
  let total f = passes *. List.fold_left (fun a r -> a +. f r) 0.0 runs in
  total (fun r -> r.Casper.seq_s)
  /. total (fun r -> r.Casper.result.Runner.time_s)

let section title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '=')
