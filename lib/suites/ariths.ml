module Value = Casper_common.Value
module W = Workload

let b name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "Ariths";
    source;
    main_method = main;
    workload = Suite.default_workload gen;
  }

let int_array rng ~n =
  [ ("data", W.ints rng ~n ~lo:(-50) ~hi:100); ("n", Value.Int n) ]

let int_list rng ~n = [ ("data", W.ints rng ~n ~lo:(-50) ~hi:100) ]

let sum =
  b "Sum"
    {|
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++)
    total += data[i];
  return total;
}
|}
    "sum" int_array

let max_ =
  b "Max"
    {|
int max(List<Integer> data) {
  int mx = -1000000;
  for (int x : data) {
    if (x > mx)
      mx = x;
  }
  return mx;
}
|}
    "max" int_list

let min_ =
  b "Min"
    {|
int min(List<Integer> data) {
  int mn = 1000000;
  for (int x : data) {
    if (x < mn)
      mn = x;
  }
  return mn;
}
|}
    "min" int_list

let delta =
  b "Delta"
    {|
int delta(int[] data, int n) {
  int mn = 1000000;
  int mx = -1000000;
  for (int i = 0; i < n; i++) {
    if (data[i] < mn) mn = data[i];
    if (data[i] > mx) mx = data[i];
  }
  return mx - mn;
}
|}
    "delta" int_array

let conditional_sum =
  b "ConditionalSum"
    {|
int conditionalSum(int[] data, int n, int threshold) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    if (data[i] > threshold)
      total += data[i];
  }
  return total;
}
|}
    "conditionalSum"
    (fun rng ~n -> int_array rng ~n @ [ ("threshold", Value.Int 25) ])

let conditional_count =
  b "ConditionalCount"
    {|
int conditionalCount(int[] data, int n, int threshold) {
  int count = 0;
  for (int i = 0; i < n; i++) {
    if (data[i] > threshold)
      count += 1;
  }
  return count;
}
|}
    "conditionalCount"
    (fun rng ~n -> int_array rng ~n @ [ ("threshold", Value.Int 25) ])

let average =
  b "Average"
    {|
double average(double[] data, int n) {
  double total = 0;
  int count = 0;
  for (int i = 0; i < n; i++) {
    total += data[i];
    count += 1;
  }
  return total / count;
}
|}
    "average"
    (fun rng ~n ->
      [ ("data", W.floats rng ~n ~lo:(-10.0) ~hi:10.0); ("n", Value.Int n) ])

let product =
  b "Product"
    {|
double product(double[] data, int n) {
  double prod = 1;
  for (int i = 0; i < n; i++)
    prod = prod * data[i];
  return prod;
}
|}
    "product"
    (fun rng ~n ->
      [ ("data", W.floats rng ~n ~lo:0.5 ~hi:1.5); ("n", Value.Int n) ])

let contains =
  b "Contains"
    {|
boolean contains(int[] data, int n, int key) {
  boolean found = false;
  for (int i = 0; i < n; i++) {
    if (data[i] == key)
      found = true;
  }
  return found;
}
|}
    "contains"
    (fun rng ~n -> int_array rng ~n @ [ ("key", Value.Int 42) ])

let all_positive =
  b "AllPositive"
    {|
boolean allPositive(int[] data, int n) {
  boolean all = true;
  for (int i = 0; i < n; i++) {
    all = all && (data[i] > 0);
  }
  return all;
}
|}
    "allPositive" int_array

let sum_abs =
  b "SumAbs"
    {|
int sumAbs(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++)
    total += Math.abs(data[i]);
  return total;
}
|}
    "sumAbs" int_array

let all : Suite.benchmark list =
  [
    sum;
    max_;
    min_;
    delta;
    conditional_sum;
    conditional_count;
    average;
    product;
    contains;
    all_positive;
    sum_abs;
  ]
