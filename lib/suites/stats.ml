module Value = Casper_common.Value
module W = Workload

let b name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "Stats";
    source;
    main_method = main;
    workload = Suite.default_workload gen;
  }

let xs rng ~n =
  [ ("x", W.floats rng ~n ~lo:(-10.0) ~hi:10.0); ("n", Value.Int n) ]

let xy rng ~n =
  [
    ("x", W.floats rng ~n ~lo:(-10.0) ~hi:10.0);
    ("y", W.floats rng ~n ~lo:(-10.0) ~hi:10.0);
    ("n", Value.Int n);
  ]

let mean =
  b "Mean"
    {|
double mean(double[] x, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += x[i];
  return sum / n;
}
|}
    "mean" xs

let variance =
  b "Variance"
    {|
double variance(double[] x, int n) {
  double sum = 0;
  double sumsq = 0;
  for (int i = 0; i < n; i++) {
    sum += x[i];
    sumsq += x[i] * x[i];
  }
  return (sumsq - sum * sum / n) / n;
}
|}
    "variance" xs

let std_error =
  b "StandardError"
    {|
double stdError(double[] x, int n) {
  double sum = 0;
  double sumsq = 0;
  for (int i = 0; i < n; i++) {
    sum += x[i];
    sumsq += x[i] * x[i];
  }
  return Math.sqrt((sumsq - sum * sum / n) / n) / Math.sqrt(n);
}
|}
    "stdError" xs

let covariance =
  b "Covariance"
    {|
double covariance(double[] x, double[] y, int n) {
  double sx = 0;
  double sy = 0;
  double sxy = 0;
  for (int i = 0; i < n; i++) {
    sx += x[i];
    sy += y[i];
    sxy += x[i] * y[i];
  }
  return (sxy - sx * sy / n) / n;
}
|}
    "covariance" xy

let dot_product =
  b "DotProduct"
    {|
double dot(double[] x, double[] y, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += x[i] * y[i];
  return sum;
}
|}
    "dot" xy

let hadamard =
  b "HadamardProduct"
    {|
double[] hadamard(double[] x, double[] y, int n) {
  double[] out = new double[n];
  for (int i = 0; i < n; i++)
    out[i] = x[i] * y[i];
  return out;
}
|}
    "hadamard" xy

let scale =
  b "Scale"
    {|
double[] scale(double[] x, int n, double c) {
  double[] out = new double[n];
  for (int i = 0; i < n; i++)
    out[i] = x[i] * c;
  return out;
}
|}
    "scale"
    (fun rng ~n -> xs rng ~n @ [ ("c", Value.Float 2.5) ])

let shift =
  b "Shift"
    {|
double[] shift(double[] x, int n, double c) {
  double[] out = new double[n];
  for (int i = 0; i < n; i++)
    out[i] = x[i] + c;
  return out;
}
|}
    "shift"
    (fun rng ~n -> xs rng ~n @ [ ("c", Value.Float 1.5) ])

let l1_norm =
  b "L1Norm"
    {|
double l1norm(double[] x, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += Math.abs(x[i]);
  return sum;
}
|}
    "l1norm" xs

let sum_squares =
  b "SumSquares"
    {|
double sumSquares(double[] x, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += x[i] * x[i];
  return sum;
}
|}
    "sumSquares" xs

let range =
  b "Range"
    {|
double range(double[] x, int n) {
  double lo = 1000000;
  double hi = -1000000;
  for (int i = 0; i < n; i++) {
    if (x[i] < lo) lo = x[i];
    if (x[i] > hi) hi = x[i];
  }
  return hi - lo;
}
|}
    "range" xs

let weighted_sum =
  b "WeightedSum"
    {|
double weightedSum(double[] x, double[] w, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += x[i] * w[i];
  return sum;
}
|}
    "weightedSum"
    (fun rng ~n ->
      [
        ("x", W.floats rng ~n ~lo:(-10.0) ~hi:10.0);
        ("w", W.floats rng ~n ~lo:0.0 ~hi:1.0);
        ("n", Value.Int n);
      ])

let histogram1d =
  b "Histogram1D"
    {|
int[] histogram(int[] x, int n, int buckets) {
  int[] hist = new int[buckets];
  for (int i = 0; i < n; i++)
    hist[x[i]] += 1;
  return hist;
}
|}
    "histogram"
    (fun rng ~n ->
      [
        ("x", W.ints rng ~n ~lo:0 ~hi:15);
        ("n", Value.Int n);
        ("buckets", Value.Int 16);
      ])

let count_above =
  b "CountAbove"
    {|
int countAbove(double[] x, int n, double t) {
  int count = 0;
  for (int i = 0; i < n; i++) {
    if (x[i] > t)
      count += 1;
  }
  return count;
}
|}
    "countAbove"
    (fun rng ~n -> xs rng ~n @ [ ("t", Value.Float 5.0) ])

let mean_abs_dev =
  b "MeanAbsDeviation"
    {|
double meanAbsDev(double[] x, int n, double mu) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += Math.abs(x[i] - mu);
  return sum / n;
}
|}
    "meanAbsDev"
    (fun rng ~n -> xs rng ~n @ [ ("mu", Value.Float 0.0) ])

let sum_log =
  b "SumLog"
    {|
double sumLog(double[] x, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += Math.log(x[i]);
  return sum;
}
|}
    "sumLog"
    (fun rng ~n ->
      [ ("x", W.floats rng ~n ~lo:0.5 ~hi:10.0); ("n", Value.Int n) ])

let sum_exp =
  b "SumExp"
    {|
double sumExp(double[] x, int n) {
  double sum = 0;
  for (int i = 0; i < n; i++)
    sum += Math.exp(x[i]);
  return sum;
}
|}
    "sumExp"
    (fun rng ~n ->
      [ ("x", W.floats rng ~n ~lo:(-2.0) ~hi:2.0); ("n", Value.Int n) ])

let count_nonzero =
  b "CountNonZero"
    {|
int countNonZero(int[] x, int n) {
  int count = 0;
  for (int i = 0; i < n; i++) {
    if (x[i] != 0)
      count += 1;
  }
  return count;
}
|}
    "countNonZero"
    (fun rng ~n -> [ ("x", W.ints rng ~n ~lo:0 ~hi:3); ("n", Value.Int n) ])

(* the suite's one untranslatable fragment: a variable-sized convolution
   kernel needs a loop inside λm *)
let convolve =
  b "Convolve"
    {|
double[] convolve(double[] x, int n, double[] kernel, int ksize) {
  double[] out = new double[n];
  for (int i = 0; i < n - ksize; i++) {
    double acc = 0;
    for (int k = 0; k < ksize; k++)
      acc += x[i + k] * kernel[k];
    out[i] = acc;
  }
  return out;
}
|}
    "convolve"
    (fun rng ~n ->
      [
        ("x", W.floats rng ~n ~lo:(-1.0) ~hi:1.0);
        ("n", Value.Int n);
        ("kernel", W.floats rng ~n:3 ~lo:0.0 ~hi:1.0);
        ("ksize", Value.Int 3);
      ])

let all : Suite.benchmark list =
  [
    mean;
    variance;
    std_error;
    covariance;
    dot_product;
    hadamard;
    scale;
    shift;
    l1_norm;
    sum_squares;
    range;
    weighted_sum;
    histogram1d;
    count_above;
    mean_abs_dev;
    sum_log;
    sum_exp;
    count_nonzero;
    convolve;
  ]
