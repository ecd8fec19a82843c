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

let sequential_cpu_ns = 60.0

let sequential_read_byte_ns = 1.6
