let suites : (string * Suite.benchmark list) list =
  [
    ("Phoenix", Phoenix.all);
    ("Ariths", Ariths.all);
    ("Stats", Stats.all);
    ("Biglambda", Biglambda.all);
    ("Fiji", Fiji.all);
    ("TPC-H", Tpch_suite.all);
    ("Iterative", Iterative.all);
  ]

let all_benchmarks : Suite.benchmark list =
  List.concat_map snd suites

let find_benchmark name : Suite.benchmark =
  match
    List.find_opt (fun b -> String.equal b.Suite.name name) all_benchmarks
  with
  | Some b -> b
  | None -> invalid_arg ("unknown benchmark " ^ name)
