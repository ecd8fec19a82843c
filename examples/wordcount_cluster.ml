(** WordCount across all three target frameworks.

    Translates the sequential Java WordCount once, then executes the
    generated dataflow under the Spark, Flink and Hadoop cluster
    profiles, showing both the data-volume metrics the engine accounts
    and how the framework profiles change the modeled runtime (§7.2:
    Spark > Flink > Hadoop).

    Run with: [dune exec examples/wordcount_cluster.exe] *)

module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis
module Runner = Casper_codegen.Runner
module Engine = Mapreduce.Engine

let () =
  let b = Casper_suites.Registry.find_benchmark "WordCount" in
  let report =
    Casper.translate_source ~suite:"example" ~benchmark:"WordCount" b.source
  in
  let t = List.hd report.Casper.translations in
  let best = List.hd t.Casper.survivors in
  Fmt.pr "Summary: %a@.@." Casper_ir.Lang.pp_summary best.Cegis.summary;

  let rng = Casper_common.Rng.create 7 in
  let env =
    [ ("words", Casper_suites.Workload.words rng ~n:8000 ~vocab:500 ~skew:1.0) ]
  in
  let scale = 750_000_000.0 /. 8000.0 in
  let clusters = Mapreduce.Cluster.[ spark; flink; hadoop ] in
  let runs =
    List.concat_map
      (fun cluster ->
        Casper.run ~cluster ~scale report.Casper.program env [ t ])
      clusters
  in
  let seq_s = (List.hd runs).Casper.seq_s in
  Fmt.pr "sequential (1 core): %.1f s (modeled, 75GB-scale workload)@.@."
    seq_s;
  List.iter2
    (fun (cluster : Mapreduce.Cluster.t) (r : Casper.run) ->
      let mr = r.Casper.result in
      assert r.Casper.agree;
      Fmt.pr "%-8s %6.1f s  (%.1fx)   emitted %s MB, shuffled %s MB (sample)@."
        cluster.Mapreduce.Cluster.name mr.Runner.time_s
        (seq_s /. mr.Runner.time_s)
        (Casper_common.Tablefmt.mb (Engine.total_emitted mr.Runner.run))
        (Casper_common.Tablefmt.mb (Engine.total_shuffled mr.Runner.run)))
    clusters runs;
  Fmt.pr "@.Generated Hadoop code:@.%s@." (Option.get t.Casper.hadoop_src)
