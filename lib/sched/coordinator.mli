(** Discrete-event task coordinator: decomposed stages, worker slots,
    seeded fault injection, retry with capped exponential backoff,
    speculative re-execution, backend-specific recovery. *)

(** One barrier-synchronised stage, decomposed into equal-share tasks. *)
type stage = {
  label : string;
  kind : Task.kind;
  ntasks : int;
  task_s : float;  (** fault-free duration of one task *)
  bytes_out_per_task : int;
  recover_s : float;
      (** cost to reconstruct this stage's whole input (share 1.0);
          the plan builder bakes in the backend's recovery semantics *)
  barrier_s : float;  (** serial overhead charged once the stage ends *)
}

type plan = {
  workers : int;
  stages : stage list;
  base_serial_s : float;
      (** job overheads and anything else not decomposed into tasks *)
  relaunch_s : float;
      (** per-attempt spin-up paid by retries and speculative copies *)
  detect_s : float;
      (** failure-detection latency before a dead worker's work is
          requeued *)
  recovery : Faults.recovery;
}

type config = {
  faults : Faults.profile;
  speculation : bool;
  spec_threshold : float;
      (** launch a speculative copy when an attempt has run longer than
          this multiple of the median completed duration (and half the
          stage is done) *)
  backoff_base_s : float;
  backoff_cap_s : float;
  max_attempts : int;
}

val config :
  ?faults:Faults.profile ->
  ?speculation:bool ->
  ?spec_threshold:float ->
  ?backoff_base_s:float ->
  ?backoff_cap_s:float ->
  ?max_attempts:int ->
  unit ->
  config

(** [config ()]: no faults, speculation on. *)
val fault_free : config

type outcome = {
  completion_s : float;
  trace : Trace.t;
  attempts : int;
  failures : int;
  speculated : int;
  recoveries : int;
  deaths : int;
}

(** What the fault-free schedule takes — every stage fills all slots at
    once, so the makespan is the analytic per-stage sum. *)
val ideal_completion : plan -> float

(** Run the schedule to completion. Deterministic: the same (plan,
    config) pair always yields the same outcome. *)
val run : ?config:config -> plan -> outcome
