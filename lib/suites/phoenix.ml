(** The Phoenix suite (§7.1): standard MapReduce problems — WordCount,
    StringMatch, 3D Histogram, Linear Regression, KMeans, PCA, Matrix
    Multiplication — in their sequential Java forms (the paper used the
    Java translations from the MOLD work). 11 translatable fragments, of
    which Casper handled 7: three failures need loops inside transformer
    functions (KMeans assignment, PCA covariance, Matrix
    Multiplication) and one times out during synthesis (the histogram
    peak search). *)

module Value = Casper_common.Value
module W = Workload
module Rng = Casper_common.Rng

let b ?(sample = 5_000) ?(nominal = 750_000_000.0) name source main gen :
    Suite.benchmark =
  {
    Suite.name;
    suite = "Phoenix";
    source;
    main_method = main;
    workload = { Suite.gen; sample_n = sample; nominal_n = nominal; passes = 1 };
  }

let word_count =
  b "WordCount"
    {|
Map<String, Integer> wordcount(List<String> words) {
  Map<String, Integer> counts = new HashMap<>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
|}
    "wordcount"
    (fun rng ~n -> [ ("words", W.words rng ~n ~vocab:500 ~skew:1.0) ])

let string_match =
  b "StringMatch"
    {|
boolean stringmatch(List<String> words, String key1, String key2) {
  boolean key1_found = false;
  boolean key2_found = false;
  for (String word : words) {
    if (word.equals(key1)) key1_found = true;
    if (word.equals(key2)) key2_found = true;
  }
  return key1_found && key2_found;
}
|}
    "stringmatch"
    (fun rng ~n ->
      [
        ("words", W.match_words rng ~n ~key1:"hello" ~key2:"world" ~p1:0.02 ~p2:0.02);
        ("key1", Value.Str "hello");
        ("key2", Value.Str "world");
      ])

let histogram =
  b "3DHistogram"
    {|
class Pixel { int r; int g; int b; }
int[] histogram(List<Pixel> pixels) {
  int[] hist = new int[768];
  for (Pixel p : pixels) {
    hist[p.r] += 1;
    hist[p.g + 256] += 1;
    hist[p.b + 512] += 1;
  }
  return hist;
}
int histogramPeak(int[] hist, int n) {
  int peak = 0;
  int peakIdx = 0;
  for (int i = 0; i < n; i++) {
    if (hist[i] > peak) {
      peak = hist[i];
      peakIdx = i;
    }
  }
  return peakIdx;
}
|}
    "histogram"
    (fun rng ~n ->
      [
        ("pixels", W.pixels rng ~n);
        ("hist", W.ints rng ~n:(min n 768) ~lo:0 ~hi:1000);
        ("n", Value.Int (min n 768));
      ])

let linear_regression =
  b "LinearRegression"
    {|
class Point { double x; double y; }
double linreg(List<Point> points) {
  double sx = 0;
  double sy = 0;
  double sxx = 0;
  double syy = 0;
  double sxy = 0;
  for (Point p : points) {
    sx += p.x;
    sy += p.y;
    sxx += p.x * p.x;
    syy += p.y * p.y;
    sxy += p.x * p.y;
  }
  return sxy / sxx;
}
|}
    "linreg"
    (fun rng ~n ->
      [
        ( "points",
          W.structs rng ~n (fun rng ->
              Value.Struct
                ( "Point",
                  [
                    ("x", Value.Float (Rng.float_range rng (-5.0) 5.0));
                    ("y", Value.Float (Rng.float_range rng (-5.0) 5.0));
                  ] )) );
      ])

let kmeans =
  b "KMeans"
    {|
class KPoint { double px; double py; int cluster; }
void assign(List<KPoint> kpoints, double[] cx, double[] cy, int k) {
  for (KPoint p : kpoints) {
    double best = 100000000;
    int bestc = 0;
    for (int c = 0; c < k; c++) {
      double d = (p.px - cx[c]) * (p.px - cx[c]) + (p.py - cy[c]) * (p.py - cy[c]);
      if (d < best) {
        best = d;
        bestc = c;
      }
    }
    p.cluster = bestc;
  }
}
double[] clusterSums(List<KPoint> assigned, int k) {
  double[] sums = new double[k];
  for (KPoint q : assigned) {
    sums[q.cluster] += q.px;
  }
  return sums;
}
int[] clusterCounts(List<KPoint> assigned2, int k2) {
  int[] counts = new int[k2];
  for (KPoint s : assigned2) {
    counts[s.cluster] += 1;
  }
  return counts;
}
|}
    "clusterSums"
    (fun rng ~n ->
      let kpoint rng =
        Value.Struct
          ( "KPoint",
            [
              ("px", Value.Float (Rng.float_range rng (-5.0) 5.0));
              ("py", Value.Float (Rng.float_range rng (-5.0) 5.0));
              ("cluster", Value.Int (Rng.int rng 8));
            ] )
      in
      [
        ("kpoints", W.structs rng ~n kpoint);
        ("assigned", W.structs rng ~n kpoint);
        ("assigned2", W.structs rng ~n kpoint);
        ("cx", W.floats rng ~n:8 ~lo:(-5.0) ~hi:5.0);
        ("cy", W.floats rng ~n:8 ~lo:(-5.0) ~hi:5.0);
        ("k", Value.Int 8);
        ("k2", Value.Int 8);
      ])

let pca =
  b "PCA"
    {|
double[] colMeans(double[][] mat, int rows, int cols) {
  double[] means = new double[rows];
  for (int i = 0; i < rows; i++) {
    double sum = 0;
    for (int j = 0; j < cols; j++)
      sum += mat[i][j];
    means[i] = sum / cols;
  }
  return means;
}
double[][] covarianceMatrix(double[][] data, int r, int c, double[] mu) {
  double[][] cov = new double[c][c];
  for (int i = 0; i < c; i++) {
    for (int j = 0; j < c; j++) {
      double acc = 0;
      for (int k = 0; k < r; k++)
        acc += (data[k][i] - mu[i]) * (data[k][j] - mu[j]);
      cov[i][j] = acc / r;
    }
  }
  return cov;
}
|}
    "colMeans"
    (fun rng ~n ->
      let rows = max 1 (n / 16) in
      [
        ("mat", W.float_matrix rng ~rows ~cols:16 ~lo:0.0 ~hi:100.0);
        ("rows", Value.Int rows);
        ("cols", Value.Int 16);
        ("data", W.float_matrix rng ~rows:16 ~cols:8 ~lo:0.0 ~hi:100.0);
        ("r", Value.Int 16);
        ("c", Value.Int 8);
        ("mu", W.floats rng ~n:8 ~lo:0.0 ~hi:100.0);
      ])

let matrix_multiply =
  b "MatrixMultiplication"
    {|
int[][] matmul(int[][] a, int[][] b, int n) {
  int[][] out = new int[n][n];
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      int acc = 0;
      for (int k = 0; k < n; k++)
        acc += a[i][k] * b[k][j];
      out[i][j] = acc;
    }
  }
  return out;
}
|}
    "matmul"
    (fun rng ~n ->
      let dim = max 2 (int_of_float (sqrt (float_of_int (min n 1024)))) in
      [
        ("a", W.matrix rng ~rows:dim ~cols:dim ~lo:0 ~hi:10);
        ("b", W.matrix rng ~rows:dim ~cols:dim ~lo:0 ~hi:10);
        ("n", Value.Int dim);
      ])

let all : Suite.benchmark list =
  [
    word_count;
    string_match;
    histogram;
    linear_regression;
    kmeans;
    pca;
    matrix_multiply;
  ]
