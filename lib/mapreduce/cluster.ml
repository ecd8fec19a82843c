(** Cluster and framework performance profiles.

    The paper evaluates on 10 AWS m3.2xlarge nodes — 1 master and 9 core
    nodes with 8 vCPUs each, i.e. 72 worker slots — running Spark 2.3,
    Hadoop 2.8 and Flink 1.4 over HDFS. We model that cluster: the
    engine executes plans in-memory for correctness while charging time
    against these profiles. The three frameworks differ exactly where
    the paper's numbers say they differ:

    - {b Spark}: in-memory pipelining, cheap per-stage scheduling.
    - {b Flink}: pipelined streaming; slightly higher per-record cost
      (the paper measures Flink ≈ 0.7× Spark's speedup on average).
    - {b Hadoop}: every map→reduce pair is a separate job whose output
      is materialized to HDFS; large per-job startup (Hadoop averages
      6.4× vs Spark's 15.6× in §7.2).

    All constants are per-record/per-byte costs in nanoseconds; absolute
    values are calibrated, only relative behaviour is claimed. *)

type t = {
  name : string;
  workers : int;  (** parallel slots across the cluster *)
  map_cpu_ns : float;  (** per record entering a map stage *)
  reduce_cpu_ns : float;  (** per record entering a reduce stage *)
  emit_byte_ns : float;  (** serialization cost per emitted byte *)
  shuffle_byte_ns : float;
      (** cost per byte crossing the network, aggregate cluster
          bandwidth *)
  read_byte_ns : float;  (** input scan cost per byte (HDFS read) *)
  stage_overhead_s : float;  (** scheduling a stage *)
  job_overhead_s : float;  (** starting a job (Hadoop: JVM spin-up) *)
  materialize_byte_ns : float;
      (** writing intermediate results durably between jobs *)
  per_job_boundary : bool;  (** true = each shuffle ends a job (Hadoop) *)
}

let spark =
  {
    name = "Spark";
    workers = 72;
    map_cpu_ns = 120.0;
    reduce_cpu_ns = 110.0;
    emit_byte_ns = 0.6;
    shuffle_byte_ns = 0.45;
    read_byte_ns = 0.3;
    stage_overhead_s = 0.5;
    job_overhead_s = 2.0;
    materialize_byte_ns = 0.0;
    per_job_boundary = false;
  }

let flink =
  {
    spark with
    name = "Flink";
    map_cpu_ns = 180.0;
    reduce_cpu_ns = 160.0;
    emit_byte_ns = 0.85;
    shuffle_byte_ns = 0.6;
    stage_overhead_s = 0.8;
    job_overhead_s = 2.5;
  }

let hadoop =
  {
    name = "Hadoop";
    workers = 72;
    map_cpu_ns = 300.0;
    reduce_cpu_ns = 280.0;
    emit_byte_ns = 1.6;
    shuffle_byte_ns = 0.8;
    read_byte_ns = 0.45;
    stage_overhead_s = 1.5;
    job_overhead_s = 12.0;
    materialize_byte_ns = 1.2;
    per_job_boundary = true;
  }

(** The original single-threaded program on one core of the master node.
    Costs are byte-dominated: simple scalar loops (cheap records) gain
    less from parallelization than wide-record scans. In Table 1 this
    puts Iterative (25.9× mean) and TPC-H (25.4×) highest and Phoenix
    (14.3×) lowest, with Fiji and Ariths just above it. *)
let sequential_cpu_ns = 60.0

let sequential_read_byte_ns = 1.6
