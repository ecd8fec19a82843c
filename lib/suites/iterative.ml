module Value = Casper_common.Value
module W = Workload
module Rng = Casper_common.Rng

let b name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "Iterative";
    source;
    main_method = main;
    workload =
      { Suite.gen; sample_n = 6_000; nominal_n = 2_250_000_000.0; passes = 10 };
  }

(* PageRank over pre-joined edge records: each edge carries its source's
   current rank and out-degree (the shape Spark's own example produces
   after the ranks⋈links join). Three fragments per iteration. *)
let pagerank =
  b "PageRank"
    {|
class REdge { int src; int dst; double srcRank; int srcOutdeg; }
double[] contribs(List<REdge> edges, int npages) {
  double[] contrib = new double[npages];
  for (REdge e : edges) {
    contrib[e.dst] += e.srcRank / e.srcOutdeg;
  }
  return contrib;
}
double[] newRanks(double[] contrib2, int np2, double damping) {
  double[] ranks = new double[np2];
  for (int i = 0; i < np2; i++)
    ranks[i] = (1.0 - damping) + damping * contrib2[i];
  return ranks;
}
double totalRank(double[] ranks2, int np3) {
  double total = 0;
  for (int i = 0; i < np3; i++)
    total += ranks2[i];
  return total;
}
|}
    "contribs"
    (fun rng ~n ->
      let npages = max 4 (n / 20) in
      [
        ( "edges",
          W.structs rng ~n (fun rng ->
              Value.Struct
                ( "REdge",
                  [
                    ("src", Value.Int (Rng.int rng npages));
                    ("dst", Value.Int (Rng.int rng npages));
                    ("srcRank", Value.Float (Rng.float_range rng 0.1 2.0));
                    ("srcOutdeg", Value.Int (1 + Rng.int rng 20));
                  ] )) );
        ("npages", Value.Int npages);
        ("contrib2", W.floats rng ~n:npages ~lo:0.0 ~hi:2.0);
        ("np2", Value.Int npages);
        ("damping", Value.Float 0.85);
        ("ranks2", W.floats rng ~n:npages ~lo:0.0 ~hi:2.0);
        ("np3", Value.Int npages);
      ])

(* Logistic regression with the two-feature model unrolled (the JVM
   implementations of the Spark tutorial fix the dimensionality the
   same way). The gradient loop runs every iteration; loss, accuracy
   and prediction fragments run once. Four fragments in total. *)
let logistic_regression =
  b "LogisticRegression"
    {|
class LPoint { double x0; double x1; double label; }
double gradientStep(List<LPoint> points, double w0, double w1) {
  double g0 = 0;
  double g1 = 0;
  for (LPoint p : points) {
    g0 += (1.0 / (1.0 + Math.exp(0.0 - (w0 * p.x0 + w1 * p.x1))) - p.label) * p.x0;
    g1 += (1.0 / (1.0 + Math.exp(0.0 - (w0 * p.x0 + w1 * p.x1))) - p.label) * p.x1;
  }
  return g0 + g1;
}
double squaredLoss(List<LPoint> points3, double u0, double u1) {
  double loss = 0;
  for (LPoint p : points3) {
    loss += (u0 * p.x0 + u1 * p.x1 - p.label) * (u0 * p.x0 + u1 * p.x1 - p.label);
  }
  return loss;
}
int countCorrect(List<LPoint> points4, double t0, double t1) {
  int correct = 0;
  for (LPoint p : points4) {
    if ((t0 * p.x0 + t1 * p.x1 > 0.0) == (p.label > 0.5))
      correct += 1;
  }
  return correct;
}
double[] predictions(double[] xs0, double[] xs1, int np, double s0, double s1) {
  double[] preds = new double[np];
  for (int i = 0; i < np; i++)
    preds[i] = s0 * xs0[i] + s1 * xs1[i];
  return preds;
}
|}
    "gradientStep"
    (fun rng ~n ->
      let pts () =
        W.structs rng ~n (fun rng ->
            let x0 = Rng.float_range rng (-2.0) 2.0 in
            let x1 = Rng.float_range rng (-2.0) 2.0 in
            Value.Struct
              ( "LPoint",
                [
                  ("x0", Value.Float x0);
                  ("x1", Value.Float x1);
                  ( "label",
                    Value.Float (if x0 +. x1 > 0.0 then 1.0 else 0.0) );
                ] ))
      in
      [
        ("points", pts ());
        ("w0", Value.Float 0.5);
        ("w1", Value.Float (-0.3));
        ("points3", pts ());
        ("u0", Value.Float 0.5);
        ("u1", Value.Float (-0.3));
        ("points4", pts ());
        ("t0", Value.Float 0.5);
        ("t1", Value.Float (-0.3));
        ("xs0", W.floats rng ~n ~lo:(-2.0) ~hi:2.0);
        ("xs1", W.floats rng ~n ~lo:(-2.0) ~hi:2.0);
        ("np", Value.Int n);
        ("s0", Value.Float 0.5);
        ("s1", Value.Float (-0.3));
      ])

let all : Suite.benchmark list = [ pagerank; logistic_regression ]
