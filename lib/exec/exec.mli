(** Execution sessions: many plans in flight against one session's own
    runner domains and one shared dataset cache, with deadlines and
    cooperative cancellation.

    {!Engine.run_plan} executes one plan and returns; a {!Session.t}
    runs many. Jobs wait in submission order ({!Session.submit}), a
    bounded-concurrency dispatcher makes them ready as slots free up,
    and each job runs the plan through the ordinary
    engine with the session's shared configuration. There is no
    admission policy (no priorities, no queue bound): scheduling and
    admission belong to the framework a generated program runs on.
    A job is served from the shared cache when an earlier job ran the
    same plan object over the same dataset lists (the cache keys by
    identity, DESIGN.md §13), so a client that resubmits a plan passes
    the plan it built once.
    Because every job executes on one domain, start to finish, and the
    shared cache serves byte-identical results by contract, each job's
    output and stage metrics are byte-identical to a solo [run_plan] at
    any concurrency × job mix × budget — concurrency moves wall-clock,
    never results.

    Cancellation is cooperative: {!Session.cancel} (or an expired
    deadline) flips the job's token, the engine polls it before each
    stage and every 4,096 records inside one and raises
    [Engine.Cancelled], and the dispatcher frees the job's slot; spill
    temp files are swept by the grouped stages before the exception
    propagates, so a cancelled job leaks no file. A settled job leaves
    the session only its id, outcome and timestamps (for the shutdown
    span): its datasets, plan and run are the caller's to keep or
    drop. *)

module Value = Casper_common.Value

(** The execution-configuration record ({!Mapreduce.Engine.Config}):
    one [t] gathering [obs]/[memory_budget]/[spill_dir]/[cache]/
    [cluster]/[cancel] plus the session's [concurrency]. A [None] field
    is the built-in value; [of_env] is the one reader of the [CASPER_*]
    variables that set some of them. *)
module Config = Mapreduce.Engine.Config

module Session : sig
  type t

  (** How a job ended. [Cancelled] carries ["cancelled"] for explicit
      cancellation or ["deadline"] for an expired deadline; [Failed]
      carries the exception text ({!Mapreduce.Engine.Engine_error}
      included). *)
  type outcome =
    | Completed of Mapreduce.Engine.run
    | Cancelled of string
    | Failed of string

  (** A submitted job handle. *)
  type job

  type stats = {
    jobs_admitted : int;  (** every job {!submit} accepted *)
    jobs_cancelled : int;
    jobs_completed : int;
    jobs_failed : int;
    queued : int;  (** jobs waiting for a slot right now *)
    running : int;
        (** jobs dispatched and not yet finished: each holds a slot,
            though it may still wait for a domain to run it *)
    queue_high_water : int;
        (** most jobs ever waiting for a slot, counted after dispatch: a
            job that took a free slot at once never waited *)
  }

  (** [create ?config ()] — a session over [config] (default
      {!Config.default}).

      [config.concurrency] (default 1) bounds the jobs dispatched at
      once; the rest wait, unbounded, in submission order. Dispatched
      jobs run on the caller waiting in {!await} or {!drain} and on up
      to [min concurrency (Domain.recommended_domain_count ()) - 1]
      runner domains the session spawns as jobs become ready; a runner
      exits as soon as no job is ready, so at concurrency 1 the waiting
      caller runs every job and no domain is spawned, and an idle
      session holds no domain. Dispatched jobs beyond those domains
      wait to be taken. [config.cache] is the shared dataset cache
      (absent: none), bounded by its own budget. [config.memory_budget]
      is each job's spill budget and nothing else: it never holds a job
      back. [config.cluster] is every job's backend (default
      {!Mapreduce.Cluster.spark}).

      [config.obs] records per-session counters and a per-job ["exec"]
      span track, flushed at {!shutdown}; engine-level spans inside
      jobs are recorded only at concurrency 1 (the owner-domain trace
      contract, DESIGN.md §9 — at higher concurrency jobs run with
      tracing disabled and the session track tells the story). *)
  val create : ?config:Config.t -> unit -> t

  val concurrency : t -> int

  (** [submit t ~datasets plan] enqueues a job behind every job
      submitted before it and returns its handle immediately (the
      dispatcher may already be running it). [deadline_s] is a
      relative deadline in seconds from submission; once expired the
      job's cancellation token reports true and the job completes
      [Cancelled "deadline"] at the engine's next poll (a deadline
      [<= 0] cancels it before its first stage).
      @raise Invalid_argument on a shut-down session. *)
  val submit :
    ?deadline_s:float ->
    t ->
    datasets:(string * Value.t list) list ->
    Mapreduce.Plan.t ->
    job

  (** Request cancellation: a queued job completes [Cancelled]
      immediately; a running job's token flips and it stops at the
      engine's next poll. Returns [false] when the job had already
      finished (its outcome stands). *)
  val cancel : t -> job -> bool

  (** Block until the job finishes (running ready jobs, so a
      concurrency-1 session makes progress inside [await]). Returns the
      outcome — never raises for job-level failures. *)
  val await : t -> job -> outcome

  (** Block until every submitted job has finished and every runner
      domain has exited. *)
  val drain : t -> unit

  val stats : t -> stats

  (** Refuse new submissions, {!drain}, flush the session's obs story
      (an ["exec.session"] span carrying the {!stats} counters and one
      completed span per job on the ["exec"] track), and join the last
      runner domain, so none outlives the session. Idempotent. *)
  val shutdown : t -> unit

  (** [create], run, {!shutdown} — also on exceptions. *)
  val with_session : ?config:Config.t -> (t -> 'a) -> 'a
end
