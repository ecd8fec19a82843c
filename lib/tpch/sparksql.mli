(** SparkSQL-substitute reference plans for the TPC-H experiments
    (Fig. 7b).

    These are hand-built physical plans with the *shapes* the paper
    observed in SparkSQL's query plans — that is where the runtime
    differences it reports come from:

    - Q1 and Q6: SparkSQL's two-phase aggregation exchanges un-combined
      rows (extra data shuffling), where Casper's translation combines
      locally ("we attribute this to the extra data shuffling performed
      by the SparkSQL query plan").
    - Q15: the plan scans the lineitem relation twice (revenue subquery
      + join against its max), where Casper's implementation scans it
      once.
    - Q17: SparkSQL schedules the correlated subquery as a broadcast
      join and beats Casper's shuffle join by ~1.7×.

    Each query returns the list of engine runs it performs; its time is
    the sum over runs. *)

module Value = Casper_common.Value
module Engine = Mapreduce.Engine

type qrun = {
  runs : Engine.run list;
  result : Value.t list;  (** final rows, for cross-checks *)
}

(** Simulated time of a query: the planning overhead plus each engine
    run's time. *)
val time : cluster:Mapreduce.Cluster.t -> scale:float -> qrun -> float

(** Q1, pricing summary report, for line items shipped by [cutoff]. *)
val q1 :
  cluster:Mapreduce.Cluster.t ->
  (string * Value.t list) list -> cutoff:int -> qrun

(** Q6, forecasting revenue change, for ship dates strictly between
    [dt1] and [dt2]. *)
val q6 :
  cluster:Mapreduce.Cluster.t ->
  (string * Value.t list) list -> dt1:int -> dt2:int -> qrun

(** Q15, top supplier, for ship dates from [dt1] up to, not including,
    [dt2]. *)
val q15 :
  cluster:Mapreduce.Cluster.t ->
  (string * Value.t list) list -> dt1:int -> dt2:int -> qrun

(** Q17, small-quantity-order revenue, for parts of [brand] and
    [container]. *)
val q17 :
  cluster:Mapreduce.Cluster.t ->
  (string * Value.t list) list -> brand:string -> container:string -> qrun
