(** All seven benchmark suites (Table 1's rows). *)

(** Each suite's name with its benchmarks, in Table 1's order. *)
val suites : (string * Suite.benchmark list) list

(** The benchmarks of every suite. *)
val all_benchmarks : Suite.benchmark list

(** The benchmark of this name; raises [Invalid_argument] when there is
    none. *)
val find_benchmark : string -> Suite.benchmark
