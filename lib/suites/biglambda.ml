(** The Bigλ suite (§7.1): data-analysis tasks — sentiment analysis,
    database-style selection and projection, Wikipedia log processing —
    reimplemented as sequential Java from their textual descriptions (as
    the paper had graduate students do). 8 fragments, 6 translated: the
    two failures fan one input record out to many reducers, which the
    IR's loop-free mappers cannot express. *)

module Value = Casper_common.Value
module W = Workload
module Rng = Casper_common.Rng

let b name source main gen : Suite.benchmark =
  {
    Suite.name;
    suite = "Biglambda";
    source;
    main_method = main;
    workload = Suite.default_workload gen;
  }

let wikipedia_pagecount =
  b "WikipediaPageCount"
    {|
class PageView { String page; int views; }
Map<String, Integer> pagecount(List<PageView> log) {
  Map<String, Integer> totals = new HashMap<>();
  for (PageView v : log) {
    totals.put(v.page, totals.getOrDefault(v.page, 0) + v.views);
  }
  return totals;
}
|}
    "pagecount"
    (fun rng ~n ->
      let pages = Array.init 200 (Fmt.str "page%03d") in
      let rank = Rng.zipf ~n:200 ~s:1.1 in
      [
        ( "log",
          (* list elements are evaluated right to left: [views] is drawn
             before [page], and reordering the fields changes the input *)
          W.structs rng ~n (fun rng ->
              Value.Struct
                ( "PageView",
                  [
                    ("page", Value.Str pages.(rank rng));
                    ("views", Value.Int (Rng.int_range rng 1 50));
                  ] )) );
      ])

let yelp_kids =
  b "YelpKids"
    {|
int yelpkids(List<String> reviews, String keyword) {
  int mentions = 0;
  for (String review : reviews) {
    if (review.contains(keyword))
      mentions += 1;
  }
  return mentions;
}
|}
    "yelpkids"
    (fun rng ~n ->
      [
        ( "reviews",
          Value.List
            (List.init n (fun _ ->
                 if Rng.bernoulli rng 0.15 then
                   Value.Str ("great for kids " ^ Rng.word rng ~min_len:3 ~max_len:6)
                 else Value.Str (Rng.word rng ~min_len:8 ~max_len:16))) );
        ("keyword", Value.Str "kids");
      ])

let sentiment =
  b "Sentiment"
    {|
int sentiment(List<String> words, String pos, String neg) {
  int positives = 0;
  int negatives = 0;
  for (String w : words) {
    if (w.equals(pos)) positives += 1;
    if (w.equals(neg)) negatives += 1;
  }
  return positives - negatives;
}
|}
    "sentiment"
    (fun rng ~n ->
      [
        ("words", W.match_words rng ~n ~key1:"good" ~key2:"bad" ~p1:0.1 ~p2:0.08);
        ("pos", Value.Str "good");
        ("neg", Value.Str "bad");
      ])

let database_select =
  b "DatabaseSelect"
    {|
class Row { int id; double amount; String category; }
double select(List<Row> rows, double threshold) {
  double total = 0;
  for (Row r : rows) {
    if (r.amount > threshold)
      total += r.amount;
  }
  return total;
}
|}
    "select"
    (fun rng ~n ->
      [
        ( "rows",
          W.structs rng ~n (fun rng ->
              Value.Struct
                ( "Row",
                  [
                    ("id", Value.Int (Rng.int rng 100000));
                    ("amount", Value.Float (Rng.float_range rng 0.0 1000.0));
                    ("category", Value.Str (Rng.word rng ~min_len:3 ~max_len:6));
                  ] )) );
        ("threshold", Value.Float 500.0);
      ])

let database_project =
  b "DatabaseProject"
    {|
class Tup { int a; double bcol; double ccol; }
double[] project(Tup[] tuples, int n) {
  double[] out = new double[n];
  for (int i = 0; i < n; i++)
    out[i] = tuples[i].bcol;
  return out;
}
|}
    "project"
    (fun rng ~n ->
      [
        ( "tuples",
          W.structs rng ~n (fun rng ->
              Value.Struct
                ( "Tup",
                  [
                    ("a", Value.Int (Rng.int rng 1000));
                    ("bcol", Value.Float (Rng.float_range rng 0.0 10.0));
                    ("ccol", Value.Float (Rng.float_range rng 0.0 10.0));
                  ] )) );
        ("n", Value.Int n);
      ])

let log_filter =
  b "LogFilter"
    {|
int logfilter(List<String> lines, String level) {
  int matches = 0;
  for (String line : lines) {
    if (line.startsWith(level))
      matches += 1;
  }
  return matches;
}
|}
    "logfilter"
    (fun rng ~n ->
      [
        ( "lines",
          Value.List
            (List.init n (fun _ ->
                 let lvl =
                   match Rng.int rng 4 with
                   | 0 -> "ERROR"
                   | 1 -> "WARN"
                   | _ -> "INFO"
                 in
                 Value.Str (lvl ^ ": " ^ Rng.word rng ~min_len:5 ~max_len:12))) );
        ("level", Value.Str "ERROR");
      ])

(* untranslatable: every record updates k reducers — a broadcasting
   mapper (one of the two Bigλ failures the paper reports) *)
let top_k =
  b "TopKScores"
    {|
double topk(double[] scores, int n, double[] best, int k) {
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < k; j++) {
      if (scores[i] > best[j])
        best[j] = scores[i];
    }
  }
  return best[0];
}
|}
    "topk"
    (fun rng ~n ->
      [
        ("scores", W.floats rng ~n ~lo:0.0 ~hi:100.0);
        ("n", Value.Int n);
        ("best", W.floats rng ~n:4 ~lo:0.0 ~hi:0.0);
        ("k", Value.Int 4);
      ])

(* untranslatable: rating cross-product broadcast (the other failure) *)
let cross_ratings =
  b "CrossRatings"
    {|
double[] crossratings(double[] ratings, int n, double[] sims, int m) {
  double[] acc = new double[m];
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      acc[j] += ratings[i] * sims[j];
    }
  }
  return acc;
}
|}
    "crossratings"
    (fun rng ~n ->
      [
        ("ratings", W.floats rng ~n ~lo:1.0 ~hi:5.0);
        ("n", Value.Int n);
        ("sims", W.floats rng ~n:16 ~lo:0.0 ~hi:1.0);
        ("m", Value.Int 16);
      ])

let all : Suite.benchmark list =
  [
    wikipedia_pagecount;
    yelp_kids;
    sentiment;
    database_select;
    database_project;
    log_filter;
    top_k;
    cross_ratings;
  ]
