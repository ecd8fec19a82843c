module Value = Casper_common.Value
module Rng = Casper_common.Rng

let lineitem_class =
  {|
class LineItem {
  int l_partkey;
  int l_suppkey;
  int l_quantity;
  double l_extendedprice;
  double l_discount;
  double l_tax;
  String l_returnflag;
  String l_linestatus;
  Date l_shipdate;
}
|}

let db_env rng ~n =
  let seed = Rng.int rng 1000000 in
  [ ("lineitem", Value.List (Tpch.Gen.lineitems ~seed ~n ())) ]

let b ?(sample = 8_000) name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "TPC-H";
    source;
    main_method = main;
    workload =
      { Suite.gen; sample_n = sample; nominal_n = 600_000_000.0; passes = 1 };
  }

let d s = Value.Int (Casper_common.Library.parse_date s)

(* Q1: three aggregate maps keyed by returnflag+linestatus *)
let q1 =
  b "Q1"
    (lineitem_class
    ^ {|
Map<String, Integer> q1SumQty(List<LineItem> lineitem, Date cutoff) {
  Map<String, Integer> sumQty = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_shipdate.before(cutoff))
      sumQty.put(l.l_returnflag + l.l_linestatus,
                 sumQty.getOrDefault(l.l_returnflag + l.l_linestatus, 0) + l.l_quantity);
  }
  return sumQty;
}
Map<String, Double> q1SumDiscPrice(List<LineItem> lineitem, Date cutoff) {
  Map<String, Double> sumDisc = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_shipdate.before(cutoff))
      sumDisc.put(l.l_returnflag + l.l_linestatus,
                  sumDisc.getOrDefault(l.l_returnflag + l.l_linestatus, 0.0) + l.l_extendedprice * (1.0 - l.l_discount));
  }
  return sumDisc;
}
Map<String, Integer> q1CountOrder(List<LineItem> lineitem, Date cutoff) {
  Map<String, Integer> countOrder = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_shipdate.before(cutoff))
      countOrder.put(l.l_returnflag + l.l_linestatus,
                     countOrder.getOrDefault(l.l_returnflag + l.l_linestatus, 0) + 1);
  }
  return countOrder;
}
|})
    "q1SumQty"
    (fun rng ~n -> db_env rng ~n @ [ ("cutoff", d "1998-09-02") ])

(* Q6: forecasting revenue change — filtered sum *)
let q6 =
  b "Q6"
    (lineitem_class
    ^ {|
double q6(List<LineItem> lineitem, Date dt1, Date dt2) {
  double revenue = 0;
  for (LineItem l : lineitem) {
    if (l.l_shipdate.after(dt1) && l.l_shipdate.before(dt2) &&
        l.l_discount >= 0.05 && l.l_discount <= 0.07 && l.l_quantity < 24)
      revenue += (l.l_extendedprice * l.l_discount);
  }
  return revenue;
}
|})
    "q6"
    (fun rng ~n ->
      db_env rng ~n @ [ ("dt1", d "1994-01-01"); ("dt2", d "1995-01-01") ])

(* Q15: top supplier — revenue per supplier, its max, and the argmax *)
let q15 =
  b "Q15"
    (lineitem_class
    ^ {|
class SuppRev { int suppkey; double revenue; }
Map<Integer, Double> q15Revenue(List<LineItem> lineitem, Date dt1, Date dt2) {
  Map<Integer, Double> revenue = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_shipdate.after(dt1) && l.l_shipdate.before(dt2))
      revenue.put(l.l_suppkey,
                  revenue.getOrDefault(l.l_suppkey, 0.0) + l.l_extendedprice * (1.0 - l.l_discount));
  }
  return revenue;
}
double q15MaxRevenue(List<SuppRev> supprev) {
  double best = -1000000.0;
  for (SuppRev s : supprev) {
    if (s.revenue > best)
      best = s.revenue;
  }
  return best;
}
int q15BestSupplier(List<SuppRev> supprev2, double maxRev) {
  int bestKey = 0;
  for (SuppRev s : supprev2) {
    if (s.revenue == maxRev)
      bestKey = s.suppkey;
  }
  return bestKey;
}
|})
    "q15Revenue"
    (fun rng ~n ->
      let sr rng =
        Value.Struct
          ( "SuppRev",
            [
              ("suppkey", Value.Int (Rng.int rng 100));
              ("revenue", Value.Float (Rng.float_range rng 0.0 100000.0));
            ] )
      in
      db_env rng ~n
      @ [
          ("dt1", d "1996-01-01");
          ("dt2", d "1996-04-01");
          ("supprev", Workload.structs rng ~n:(max 1 (n / 100)) sr);
          ("supprev2", Workload.structs rng ~n:(max 1 (n / 100)) sr);
          ("maxRev", Value.Float 50000.0);
        ])

(* Q17: small-quantity-order revenue — per-part aggregates then a join
   against the per-part average quantity (the nested query) *)
let q17 =
  b "Q17"
    (lineitem_class
    ^ {|
class PartAvg { int partkey; double avgqty; }
Map<Integer, Integer> q17SumQty(List<LineItem> lineitem, int minKey, int maxKey) {
  Map<Integer, Integer> sums = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_partkey >= minKey && l.l_partkey <= maxKey)
      sums.put(l.l_partkey, sums.getOrDefault(l.l_partkey, 0) + l.l_quantity);
  }
  return sums;
}
Map<Integer, Integer> q17CountQty(List<LineItem> lineitem, int minKey, int maxKey) {
  Map<Integer, Integer> counts = new HashMap<>();
  for (LineItem l : lineitem) {
    if (l.l_partkey >= minKey && l.l_partkey <= maxKey)
      counts.put(l.l_partkey, counts.getOrDefault(l.l_partkey, 0) + 1);
  }
  return counts;
}
double q17Total(List<LineItem> lineitem, List<PartAvg> avgs) {
  double total = 0;
  for (LineItem l : lineitem) {
    for (PartAvg a : avgs) {
      if (l.l_partkey == a.partkey && l.l_quantity < 0.2 * a.avgqty)
        total += l.l_extendedprice;
    }
  }
  return total;
}
|})
    "q17Total"
    (fun rng ~n ->
      let pa rng =
        Value.Struct
          ( "PartAvg",
            [
              ("partkey", Value.Int (1 + Rng.int rng (max 1 (n / 30))));
              ("avgqty", Value.Float (Rng.float_range rng 10.0 40.0));
            ] )
      in
      db_env rng ~n
      @ [
          ("minKey", Value.Int 1);
          ("maxKey", Value.Int 40);
          ("avgs", Workload.structs rng ~n:(max 1 (n / 200)) pa);
        ])

let all : Suite.benchmark list = [ q1; q6; q15; q17 ]
