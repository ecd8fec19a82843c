module Value = Casper_common.Value
module Rng = Casper_common.Rng

type workload = {
  gen : Rng.t -> n:int -> (string * Value.t) list;
      (** parameter environment for [main_method] with ~[n] input
          records *)
  sample_n : int;  (** in-memory record count for engine runs *)
  nominal_n : float;
      (** record count of the paper's large (75 GB-scale) dataset; the
          engine's time model scales volumes by nominal/sample *)
  passes : int;  (** sequential scans per run (iterative algorithms) *)
}

type benchmark = {
  name : string;
  suite : string;
  source : string;
  main_method : string;
  workload : workload;
}

let default_workload gen =
  { gen; sample_n = 5_000; nominal_n = 750_000_000.0; passes = 1 }

let scale_of (b : benchmark) ~(sample : int) : float =
  b.workload.nominal_n /. float_of_int (max 1 sample)
