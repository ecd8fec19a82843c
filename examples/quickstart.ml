(** Quickstart: translate the paper's running example — the row-wise
    mean benchmark of Figure 1 — from sequential Java to MapReduce, then
    execute both versions and compare.

    Run with: [dune exec examples/quickstart.exe] *)

module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis
module Ir = Casper_ir.Lang
module F = Casper_analysis.Fragment
module Value = Casper_common.Value

(* 1. The sequential input program (Figure 1a). *)
let source =
  {|
int[] rwm(int[][] mat, int rows, int cols) {
  int[] m = new int[rows];
  for (int i = 0; i < rows; i++) {
    int sum = 0;
    for (int j = 0; j < cols; j++)
      sum += mat[i][j];
    m[i] = sum / cols;
  }
  return m;
}
|}

let () =
  Fmt.pr "Input (sequential Java):@.%s@." source;

  (* 2. Run the whole pipeline: analysis, summary synthesis, two-phase
     verification, cost pruning, code generation. *)
  let report =
    Casper.translate_source ~suite:"example" ~benchmark:"rwm" source
  in
  let t = List.hd report.Casper.translations in
  let best = List.hd t.Casper.survivors in
  Fmt.pr "Synthesized and verified program summary:@.%a@.@." Ir.pp_summary
    best.Cegis.summary;
  Fmt.pr "Generated Spark code:@.%s@."
    (Option.get t.Casper.spark_src);

  (* 3. Execute both versions on a concrete matrix and compare. *)
  let rng = Casper_common.Rng.create 42 in
  let rows = 200 and cols = 16 in
  let env =
    [
      ( "mat",
        Casper_suites.Workload.matrix rng ~rows ~cols ~lo:0 ~hi:100 );
      ("rows", Value.Int rows);
      ("cols", Value.Int cols);
    ]
  in
  let r =
    List.hd
      (Casper.run ~cluster:Mapreduce.Cluster.spark ~scale:1e5
         report.Casper.program env [ t ])
  in
  let mr_s = r.Casper.result.Casper_codegen.Runner.time_s in
  Fmt.pr "Executed on a %dx%d matrix (scaled to ~20M rows):@." rows cols;
  Fmt.pr "  sequential: %.1f s (modeled)@." r.Casper.seq_s;
  Fmt.pr "  Spark plan: %.1f s (modeled)  → %.1fx speedup@." mr_s
    (r.Casper.seq_s /. mr_s);
  Fmt.pr "  outputs agree: %b@." r.Casper.agree;
  assert r.Casper.agree
