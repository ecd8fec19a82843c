(** Benchmark descriptors for the seven suites of §7.1.

    Every benchmark carries its sequential MiniJava source (the input
    Casper translates), the method that holds its translatable loops,
    and a workload generator used by the performance experiments. *)

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

(** A workload of one pass over 5,000 sampled records, standing for 750
    million. *)
val default_workload :
  (Rng.t -> n:int -> (string * Value.t) list) -> workload

(** The time model's scale factor for a run over [sample] records: the
    nominal count over the sample's. *)
val scale_of : benchmark -> sample:int -> float
