(** Execution sessions. See exec.mli. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs
module Par = Casper_par.Par
module Engine = Mapreduce.Engine
module Config = Mapreduce.Engine.Config

module Session = struct
  type outcome =
    | Completed of Engine.run
    | Cancelled of string
    | Failed of string

  type jstate = Queued | Running | Done of outcome

  type job = {
    id : int;
    deadline : float option;  (** absolute wall-clock time *)
    j_datasets : (string * Value.t list) list;
    j_plan : Mapreduce.Plan.t;
    cancel_flag : bool Atomic.t;
    mutable jstate : jstate;  (** guarded by the session mutex *)
    mutable t_start : float;
    mutable t_end : float;
  }

  (** what the shutdown span keeps of a settled job *)
  type settled = { s_id : int; s_outcome : string; s_t0 : float; s_t1 : float }

  type stats = {
    jobs_admitted : int;
    jobs_cancelled : int;
    jobs_completed : int;
    jobs_failed : int;
    queued : int;
    running : int;
    queue_high_water : int;
  }

  type t = {
    m : Mutex.t;  (** guards every mutable field below *)
    cv : Condition.t;
        (** a job changed state or became ready, or a runner exited *)
    ready : job Queue.t;  (** dispatched jobs no domain has taken yet *)
    max_runners : int;
    obs : Obs.ctx;
    base : Config.t;  (** per-job engine config, cancel token excepted *)
    cluster : Mapreduce.Cluster.t;
    concurrency : int;
    mutable queue : job list;  (** submission order *)
    mutable running : int;
    mutable next_id : int;
    mutable shut : bool;
    mutable admitted : int;
    mutable cancelled : int;
    mutable completed : int;
    mutable failed : int;
    mutable q_hw : int;
    mutable log : settled list;  (** every settled job, newest first *)
    mutable runners : unit Domain.t list;  (** runner domains taking jobs *)
    mutable exited : unit Domain.t list;
        (** the runner that exited last, not yet joined *)
  }

  let now () = Unix.gettimeofday ()

  let create ?(config = Config.default) () : t =
    let concurrency =
      match config.Config.concurrency with Some n -> max 1 n | None -> 1
    in
    (* job slots stay at [concurrency]; the domains that run the
       dispatched jobs (the waiting caller and its runners) are clamped
       to the host's cores, and a job beyond them simply waits in
       [ready]. Silently: dispatch is unchanged, so there is nothing to
       warn about (unlike [Par.recommended_jobs]). *)
    let max_runners =
      min concurrency (Domain.recommended_domain_count ()) - 1
    in
    let obs =
      match config.Config.obs with Some o -> o | None -> Obs.null
    in
    let base =
      {
        config with
        (* engine spans mutate the owner's span stack, so jobs trace
           only when at most one runs at a time (and then on the owner,
           which runs them while waiting in [await]/[drain]) *)
        obs = (if concurrency = 1 then config.Config.obs else None);
        concurrency = Some concurrency;
      }
    in
    {
      m = Mutex.create ();
      cv = Condition.create ();
      ready = Queue.create ();
      max_runners;
      obs;
      base;
      cluster =
        Option.value config.Config.cluster ~default:Mapreduce.Cluster.spark;
      concurrency;
      queue = [];
      running = 0;
      next_id = 1;
      shut = false;
      admitted = 0;
      cancelled = 0;
      completed = 0;
      failed = 0;
      q_hw = 0;
      log = [];
      runners = [];
      exited = [];
    }

  let concurrency t = t.concurrency

  (* settle [j] with [outcome]; the session mutex is held *)
  let settle (t : t) (j : job) (outcome : outcome) : unit =
    j.jstate <- Done outcome;
    let label =
      match outcome with
      | Completed _ ->
          t.completed <- t.completed + 1;
          "completed"
      | Cancelled r ->
          t.cancelled <- t.cancelled + 1;
          r
      | Failed _ ->
          t.failed <- t.failed + 1;
          "failed"
    in
    t.log <-
      { s_id = j.id; s_outcome = label; s_t0 = j.t_start; s_t1 = j.t_end }
      :: t.log

  (* run one job on whatever domain took it from [ready]; called outside
     the session mutex *)
  let rec run_job (t : t) (j : job) : unit =
    j.t_start <- now ();
    let outcome =
      try
        let cancelled () =
          Atomic.get j.cancel_flag
          || match j.deadline with Some d -> now () > d | None -> false
        in
        let cfg = { t.base with Config.cancel = Some cancelled } in
        Completed
          (Engine.run_plan ~config:cfg ~cluster:t.cluster
             ~datasets:j.j_datasets j.j_plan)
      with
      | Engine.Cancelled ->
          Cancelled (if Atomic.get j.cancel_flag then "cancelled" else "deadline")
      | Engine.Engine_error m -> Failed m
      | e -> Failed (Printexc.to_string e)
    in
    j.t_end <- now ();
    (* the slot handoff must happen on every path, cancellation and
       failure included *)
    Mutex.protect t.m (fun () ->
        t.running <- t.running - 1;
        settle t j outcome;
        pump t;
        Condition.broadcast t.cv)

  (* dispatch from the queue head while slots are free; the session
     mutex is held *)
  and pump (t : t) : unit =
    match t.queue with
    | j :: rest when t.running < t.concurrency ->
        t.queue <- rest;
        j.jstate <- Running;
        t.running <- t.running + 1;
        Queue.add j t.ready;
        if List.length t.runners < t.max_runners then
          Option.iter
            (fun d -> t.runners <- d :: t.runners)
            (Par.spawn (runner t));
        Condition.broadcast t.cv;
        pump t
    | _ -> ()

  (* A runner domain takes ready jobs until none is left, then exits:
     no domain waits idle for jobs, since an idle domain still joins
     every stop-the-world minor collection (DESIGN.md §10). It leaves
     its handle for the next runner to exit (or [shutdown]) to join, and
     joins the one left before it. [pump] adds a runner to [runners]
     before the runner can take the mutex, so it is there to remove. *)
  and runner (t : t) () : unit =
    Mutex.lock t.m;
    match Queue.take_opt t.ready with
    | Some j ->
        Mutex.unlock t.m;
        run_job t j;
        runner t ()
    | None ->
        let me = Domain.self () in
        let mine, others =
          List.partition (fun d -> Domain.get_id d = me) t.runners
        in
        let before = t.exited in
        t.runners <- others;
        t.exited <- mine;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        List.iter Domain.join before

  let submit ?deadline_s (t : t) ~(datasets : (string * Value.t list) list)
      (plan : Mapreduce.Plan.t) : job =
    let submitted = now () in
    Mutex.protect t.m (fun () ->
        if t.shut then invalid_arg "Exec.Session: session is shut down";
        let j =
          {
            id = t.next_id;
            deadline = Option.map (fun d -> submitted +. d) deadline_s;
            j_datasets = datasets;
            j_plan = plan;
            cancel_flag = Atomic.make false;
            jstate = Queued;
            t_start = submitted;
            t_end = submitted;
          }
        in
        t.next_id <- t.next_id + 1;
        t.queue <- t.queue @ [ j ];
        t.admitted <- t.admitted + 1;
        pump t;
        (* after [pump]: a job dispatched at once never waited *)
        t.q_hw <- max t.q_hw (List.length t.queue);
        j)

  let cancel (t : t) (j : job) : bool =
    Mutex.protect t.m (fun () ->
        match j.jstate with
        | Done _ -> false
        | Running ->
            (* cooperative: the engine stops at its next poll and
               [run_job] settles the outcome *)
            Atomic.set j.cancel_flag true;
            true
        | Queued ->
            t.queue <- List.filter (fun x -> x != j) t.queue;
            j.t_end <- now ();
            settle t j (Cancelled "cancelled");
            pump t;
            Condition.broadcast t.cv;
            true)

  (* Wait until [finished t] (checked under the mutex), running ready
     jobs in between: on a concurrency-1 session the waiting caller is
     the only executor, so waiting must double as working. When no job
     is ready and the condition still fails, some runner is mid-job and
     will broadcast [cv]. *)
  let wait_until (t : t) (finished : unit -> bool) : unit =
    Mutex.lock t.m;
    while not (finished ()) do
      match Queue.take_opt t.ready with
      | Some j ->
          Mutex.unlock t.m;
          run_job t j;
          Mutex.lock t.m
      | None -> Condition.wait t.cv t.m
    done;
    Mutex.unlock t.m

  let await (t : t) (j : job) : outcome =
    wait_until t (fun () ->
        match j.jstate with Done _ -> true | _ -> false);
    match j.jstate with Done o -> o | _ -> assert false

  let drain (t : t) : unit =
    wait_until t (fun () ->
        List.is_empty t.queue && t.running = 0 && List.is_empty t.runners)

  let stats (t : t) : stats =
    Mutex.protect t.m (fun () ->
        {
          jobs_admitted = t.admitted;
          jobs_cancelled = t.cancelled;
          jobs_completed = t.completed;
          jobs_failed = t.failed;
          queued = List.length t.queue;
          running = t.running;
          queue_high_water = t.q_hw;
        })

  (* the session's trace story, flushed once from the owner domain:
     one exec.session span carrying the job counters, plus one
     completed span per job on the "exec" track *)
  let emit_obs (t : t) : unit =
    if Obs.enabled t.obs then
      Obs.span t.obs "exec.session" (fun () ->
          Obs.add t.obs "jobs_admitted" t.admitted;
          Obs.add t.obs "jobs_cancelled" t.cancelled;
          Obs.add t.obs "jobs_completed" t.completed;
          Obs.add t.obs "jobs_failed" t.failed;
          Obs.add t.obs "queue_high_water" t.q_hw;
          List.iter
            (fun s ->
              Obs.span_at t.obs ~track:"exec"
                ~args:[ ("outcome", s.s_outcome) ]
                ~t0:s.s_t0 ~t1:s.s_t1
                (Printf.sprintf "job-%d" s.s_id))
            (List.sort (fun a b -> Int.compare a.s_id b.s_id) t.log))

  let shutdown (t : t) : unit =
    let already = Mutex.protect t.m (fun () ->
        let s = t.shut in
        t.shut <- true;
        s)
    in
    (* drain even when called twice: a second caller still waits for
       in-flight jobs, but only the first flushes obs. [drain] leaves no
       runner taking jobs; joining the last one to exit leaves none
       alive *)
    drain t;
    if not already then begin
      emit_obs t;
      List.iter Domain.join
        (Mutex.protect t.m (fun () ->
             let e = t.exited in
             t.exited <- [];
             e))
    end

  let with_session ?config f =
    let t = create ?config () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end
