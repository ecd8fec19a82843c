(** Tests for execution sessions and the unified config surface: the
    session determinism matrix (concurrency × jobs × cache vs a solo
    run), settled jobs freeing their inputs, cooperative cancellation
    (no temp-file leak), deadlines, FIFO dispatch order, [Exec.Config]
    as the one reader of the environment, and the session's obs
    story. *)

module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine
module Cache = Mapreduce.Cache
module Cluster = Mapreduce.Cluster
module Value = Casper_common.Value
module Obs = Casper_obs.Obs
module Exec = Casper_exec.Exec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let vint n = Value.Int n
let ints l = List.map vint l
let kv k v = Value.Tuple [ k; v ]
let add_i a b = vint (Value.as_int a + Value.as_int b)

let wc_plan =
  Plan.(
    data "w" |>> map_to_pair (fun w -> (w, vint 1)) |>> reduce_by_key add_i)

let wc_words n =
  let rng = Casper_common.Rng.create 9 in
  Value.as_list (Casper_suites.Workload.words rng ~n ~vocab:60 ~skew:1.0)

let join_plan =
  Plan.(data "d" |>> join_with Plan.(data "e" |>> reduce_by_key add_i))

let join_datasets =
  [
    ("d", List.init 30 (fun i -> kv (vint (i mod 7)) (vint (i * 3))));
    ("e", List.init 12 (fun i -> kv (vint (i mod 7)) (vint i)));
  ]

(* A gate a map stage blocks on at its first record, so tests can hold
   a job mid-run on another domain while the test domain keeps
   submitting; once open, every record passes. *)
type gate = {
  g : Mutex.t;
  gcv : Condition.t;
  mutable started : bool;
  mutable release : bool;
}

let mk_gate () =
  { g = Mutex.create (); gcv = Condition.create ();
    started = false; release = false }

let gate_wait gate =
  Mutex.lock gate.g;
  gate.started <- true;
  Condition.broadcast gate.gcv;
  while not gate.release do
    Condition.wait gate.gcv gate.g
  done;
  Mutex.unlock gate.g

let wait_started gate =
  Mutex.lock gate.g;
  while not gate.started do
    Condition.wait gate.gcv gate.g
  done;
  Mutex.unlock gate.g

let open_gate gate =
  Mutex.lock gate.g;
  gate.release <- true;
  Condition.broadcast gate.gcv;
  Mutex.unlock gate.g

let gate_stage gate =
  Plan.map ~label:"gate" (fun x ->
      gate_wait gate;
      x)

let gated_plan gate = Plan.(data "d" |>> gate_stage gate |>> map Fun.id)

(* [hold gate s j f]: await the gated job [j] from a domain the test
   spawns, run [f] on the test domain once [j] is held at the gate, then
   open the gate — also when a check in [f] fails — and return [f]'s
   result with [j]'s outcome. A concurrency-1 session spawns no runner,
   so a job runs on whichever domain awaits it; awaiting from a spawned
   domain keeps the test domain free to submit and inspect. *)
let hold gate s j f =
  let waiter = Domain.spawn (fun () -> Exec.Session.await s j) in
  let x =
    Fun.protect
      ~finally:(fun () -> open_gate gate)
      (fun () ->
        wait_started gate;
        f ())
  in
  (x, Domain.join waiter)

let completed = function
  | Exec.Session.Completed r -> r
  | Exec.Session.Cancelled r -> Alcotest.fail ("unexpected Cancelled " ^ r)
  | Exec.Session.Failed m -> Alcotest.fail ("unexpected Failed " ^ m)

(* ---------------- the determinism matrix ---------------- *)

(* concurrency {1,2,4} × job copies {1,2} × cache {off,on}: every job's
   output AND stage accounting must be byte-identical to a solo
   Engine.run_plan of the same plan — concurrency moves wall-clock,
   never results. With the cache on, later copies are served from
   entries the first copies populated (on worker domains too), so the
   serving path is exercised as well. *)
let test_session_determinism () =
  let specs =
    [ (wc_plan, [ ("w", wc_words 200) ]); (join_plan, join_datasets) ]
  in
  let solo =
    List.map
      (fun (plan, datasets) ->
        Engine.run_plan ~cluster:Cluster.spark ~datasets plan)
      specs
  in
  List.iter
    (fun conc ->
      List.iter
        (fun copies ->
          List.iter
            (fun with_cache ->
              let config =
                {
                  Exec.Config.default with
                  Exec.Config.concurrency = Some conc;
                  cache =
                    (if with_cache then Some (Engine.make_cache ()) else None);
                }
              in
              Exec.Session.with_session ~config @@ fun s ->
              let subs =
                List.concat
                  (List.mapi
                     (fun i (plan, datasets) ->
                       List.init copies (fun _ ->
                           (i, Exec.Session.submit s ~datasets plan)))
                     specs)
              in
              List.iter
                (fun (i, job) ->
                  let r = completed (Exec.Session.await s job) in
                  let b = List.nth solo i in
                  check
                    (Printf.sprintf
                       "output identical (conc=%d copies=%d cache=%b)" conc
                       copies with_cache)
                    true
                    (r.Engine.output = b.Engine.output);
                  check
                    (Printf.sprintf
                       "stages identical (conc=%d copies=%d cache=%b)" conc
                       copies with_cache)
                    true
                    (r.Engine.stages = b.Engine.stages))
                subs;
              let st = Exec.Session.stats s in
              check_int "all jobs completed" (List.length subs)
                st.Exec.Session.jobs_completed;
              check_int "nothing left running" 0 st.Exec.Session.running)
            [ false; true ])
        [ 1; 2 ])
    [ 1; 2; 4 ]

(* ---------------- dispatch ---------------- *)

(* session tests take the environment's spill budget, but no cache:
   they pin dispatch behaviour, not memoization *)
let uncached_env = { Testenv.config with Exec.Config.cache = None }

(* a settled job leaves the session only its id, outcome and
   timestamps: once the caller drops the handle, nothing the session
   holds keeps the job's input alive *)
let test_settled_jobs_free_inputs () =
  let config = { uncached_env with Exec.Config.concurrency = Some 1 } in
  Exec.Session.with_session ~config @@ fun s ->
  let w = Weak.create 1 in
  let[@inline never] submit_and_forget () =
    let input = ints (List.init 1000 Fun.id) in
    Weak.set w 0 (Some input);
    ignore
      (Exec.Session.submit s ~datasets:[ ("d", input) ]
         Plan.(data "d" |>> map Fun.id)
        : Exec.Session.job)
  in
  submit_and_forget ();
  Exec.Session.drain s;
  check_int "the job completed" 1
    (Exec.Session.stats s).Exec.Session.jobs_completed;
  Gc.full_major ();
  check "the settled job's input was collected" false (Weak.check w 0)

(* ---------------- cancellation ---------------- *)

(* cancel mid-plan: the job settles Cancelled "cancelled" at the next
   stage boundary and no spill temp file survives (the grouped stage
   that ran under the tiny budget swept its own files) *)
let test_cancel_sweeps_temp_files () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casper-exec-test-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let gate = mk_gate () in
  let plan =
    Plan.(
      data "d"
      |>> map_to_pair (fun x -> (vint (Value.as_int x mod 5), x))
      |>> reduce_by_key add_i
      |>> gate_stage gate
      |>> map Fun.id)
  in
  let config =
    {
      uncached_env with
      Exec.Config.concurrency = Some 1;
      memory_budget = Some 64;
      spill_dir = Some dir;
    }
  in
  Exec.Session.with_session ~config @@ fun s ->
  let datasets = [ ("d", ints (List.init 200 Fun.id)) ] in
  let j = Exec.Session.submit s ~datasets plan in
  let (), outcome =
    hold gate s j (fun () ->
        check_int "running when cancelled" 1
          (Exec.Session.stats s).Exec.Session.running;
        check "cancel accepted on a running job" true
          (Exec.Session.cancel s j))
  in
  (match outcome with
  | Exec.Session.Cancelled r -> check_str "explicit cancellation" "cancelled" r
  | Exec.Session.Completed _ -> Alcotest.fail "job ignored its cancel token"
  | Exec.Session.Failed m -> Alcotest.fail ("Failed instead of Cancelled: " ^ m));
  let st = Exec.Session.stats s in
  check_int "slot released" 0 st.Exec.Session.running;
  check_int "cancellation counted" 1 st.Exec.Session.jobs_cancelled;
  check "cancel after the fact is refused" true
    (not (Exec.Session.cancel s j));
  check_int "no spill temp file leaked" 0 (Array.length (Sys.readdir dir))

(* an already-expired deadline reports Cancelled "deadline" — not
   Failed — before the first stage runs *)
let test_deadline_reports_cancelled () =
  let config =
    { uncached_env with Exec.Config.concurrency = Some 1 }
  in
  Exec.Session.with_session ~config @@ fun s ->
  let j =
    Exec.Session.submit s ~deadline_s:(-1.0)
      ~datasets:[ ("d", ints [ 1; 2; 3 ]) ]
      Plan.(data "d" |>> map Fun.id)
  in
  match Exec.Session.await s j with
  | Exec.Session.Cancelled r -> check_str "deadline reported" "deadline" r
  | Exec.Session.Completed _ -> Alcotest.fail "expired deadline ran anyway"
  | Exec.Session.Failed m ->
      Alcotest.fail ("deadline surfaced as Failed: " ^ m)

(* a queued job cancels immediately, without ever dispatching *)
let test_cancel_queued () =
  let gate = mk_gate () in
  let config = { uncached_env with Exec.Config.concurrency = Some 1 } in
  Exec.Session.with_session ~config @@ fun s ->
  let datasets = [ ("d", ints [ 1; 2; 3 ]) ] in
  let j1 = Exec.Session.submit s ~datasets (gated_plan gate) in
  let fired = ref false in
  let j2, o1 =
    hold gate s j1 (fun () ->
        (* j1 took the free slot at once: it never waited *)
        check_int "no queue after a dispatched job" 0
          (Exec.Session.stats s).Exec.Session.queue_high_water;
        let j2 =
          Exec.Session.submit s ~datasets
            Plan.(
              data "d"
              |>> map (fun x ->
                      fired := true;
                      x))
        in
        (* the slot is held, so the probe job waits *)
        let st = Exec.Session.stats s in
        check_int "one queued" 1 st.Exec.Session.queued;
        check_int "one running" 1 st.Exec.Session.running;
        check_int "queue high water" 1 st.Exec.Session.queue_high_water;
        check "queued cancel accepted" true (Exec.Session.cancel s j2);
        check_int "nothing queued after the cancel" 0
          (Exec.Session.stats s).Exec.Session.queued;
        j2)
  in
  ignore (completed o1 : Engine.run);
  (match Exec.Session.await s j2 with
  | Exec.Session.Cancelled r -> check_str "queued cancellation" "cancelled" r
  | _ -> Alcotest.fail "queued job was not cancelled");
  check "cancelled job never ran" true (not !fired);
  check_int "queue high water stays" 1
    (Exec.Session.stats s).Exec.Session.queue_high_water

(* ---------------- dispatch order ---------------- *)

let test_fifo_order () =
  let gate = mk_gate () in
  let order = ref [] in
  let om = Mutex.create () in
  let tagged tag =
    Plan.(
      data "d"
      |>> map (fun x ->
              Mutex.protect om (fun () ->
                  if not (List.mem tag !order) then order := tag :: !order);
              x))
  in
  let config = { uncached_env with Exec.Config.concurrency = Some 1 } in
  Exec.Session.with_session ~config @@ fun s ->
  let datasets = [ ("d", ints [ 1; 2; 3 ]) ] in
  let j1 = Exec.Session.submit s ~datasets (gated_plan gate) in
  let (), o1 =
    hold gate s j1 (fun () ->
        (* queued while the gate job holds the only slot: dispatch must
           be in submission order *)
        List.iter
          (fun tag ->
            ignore
              (Exec.Session.submit s ~datasets (tagged tag)
                : Exec.Session.job))
          [ "q1"; "q2"; "q3"; "q4" ])
  in
  ignore (completed o1 : Engine.run);
  Exec.Session.drain s;
  check "FIFO dispatch order" true
    (List.rev !order = [ "q1"; "q2"; "q3"; "q4" ])

(* Each domain runs with the runtime's backup thread, so a runner adds
   two OS threads; the first domain a process spawns also starts the
   main domain's, so one is spawned and joined before counting. *)
let threads_before_session () =
  Domain.join (Domain.spawn ignore);
  Testenv.steady_threads ()

(* job slots stay at the concurrency, but the runner domains that take
   the dispatched jobs are clamped to the host's cores: during an
   8-job burst on a concurrency-8 session at most [cores - 1] runners
   are alive (7 unclamped runners would add 14 threads), and all 8 jobs
   still complete. Every job reads the thread count as it runs. *)
let test_runners_clamped_to_host () =
  let host = Domain.recommended_domain_count () in
  let config = { uncached_env with Exec.Config.concurrency = Some 8 } in
  let before = threads_before_session () in
  let peak = Atomic.make 0 in
  let rec record k =
    let p = Atomic.get peak in
    if k > p && not (Atomic.compare_and_set peak p k) then record k
  in
  let plan =
    Plan.(
      data "w"
      |>> map (fun x ->
              Option.iter record (Testenv.threads ());
              x)
      |>> map_to_pair (fun w -> (w, vint 1))
      |>> reduce_by_key add_i)
  in
  Exec.Session.with_session ~config @@ fun s ->
  check_int "job slots" 8 (Exec.Session.concurrency s);
  let datasets = [ ("w", wc_words 100) ] in
  let jobs = List.init 8 (fun _ -> Exec.Session.submit s ~datasets plan) in
  List.iter
    (fun j -> ignore (completed (Exec.Session.await s j) : Engine.run))
    jobs;
  check_int "all completed" 8
    (Exec.Session.stats s).Exec.Session.jobs_completed;
  match before with
  | Some b ->
      let added = Atomic.get peak - b in
      check
        (Printf.sprintf "runners add %d threads at peak, at most %d" added
           (2 * (host - 1)))
        true
        (added <= 2 * (host - 1))
  | None -> ()

(* A runner exits once no job is ready, so a session between bursts
   holds no domain beyond its caller. A concurrency-2 session's gated
   first job is taken by a runner (nobody awaits it), which shows a
   runner alive; after the burst and [drain] the thread count is back
   to its value before the session, and it stays there after
   [shutdown]. A 1-core host clamps the session to no runner, so the
   caller runs every job and there is nothing to check. *)
let test_idle_session_keeps_no_domain () =
  if Domain.recommended_domain_count () >= 2 then
    match threads_before_session () with
    | None -> ()
    | Some before ->
        let config = { uncached_env with Exec.Config.concurrency = Some 2 } in
        let s = Exec.Session.create ~config () in
        let gate = mk_gate () in
        let j1 =
          Exec.Session.submit s ~datasets:[ ("d", ints [ 1; 2 ]) ]
            (gated_plan gate)
        in
        wait_started gate;
        let during = Testenv.threads () in
        open_gate gate;
        check "a runner took the gated job" true
          (match during with Some d -> d > before | None -> false);
        let datasets = [ ("w", wc_words 100) ] in
        for _ = 1 to 8 do
          ignore (Exec.Session.submit s ~datasets wc_plan : Exec.Session.job)
        done;
        Exec.Session.drain s;
        ignore (completed (Exec.Session.await s j1) : Engine.run);
        check_int "threads after drain" before
          (Option.value (Testenv.steady_threads ()) ~default:before);
        Exec.Session.shutdown s;
        check_int "threads after shutdown" before
          (Option.value (Testenv.steady_threads ()) ~default:before);
        check_int "all completed" 9
          (Exec.Session.stats s).Exec.Session.jobs_completed

(* ---------------- configuration ---------------- *)

let test_of_env () =
  let cfg = Exec.Config.of_env () in
  let positive name =
    match Option.bind (Sys.getenv_opt name) (fun s ->
        int_of_string_opt (String.trim s))
    with
    | Some n when n > 0 -> Some n
    | _ -> None
  in
  check "memory budget from CASPER_MEM_BUDGET" true
    (cfg.Exec.Config.memory_budget = positive "CASPER_MEM_BUDGET");
  check "cache from CASPER_CACHE_BUDGET" true
    (Option.bind cfg.Exec.Config.cache Cache.budget
    = positive "CASPER_CACHE_BUDGET");
  check "spill directory from CASPER_SPILL_DIR" true
    (cfg.Exec.Config.spill_dir
    =
    match Sys.getenv_opt "CASPER_SPILL_DIR" with
    | Some d when d <> "" -> Some d
    | _ -> None)

(* only [of_env] reads the environment: a session built from the
   default config runs at concurrency 1, a run with the default config
   stays in memory on the calling domain (no domain started), and a
   spilling run ignores a CASPER_SPILL_DIR that names a missing
   directory, whatever CASPER_* says *)
let test_library_reads_no_env () =
  let missing =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casper-missing-%d" (Unix.getpid ()))
  in
  (* no unsetenv: an unset variable comes back as a value that reads as
     unset — "0" for a number, "" for the directory *)
  let vars =
    [
      ("CASPER_MEM_BUDGET", "1", "0");
      ("CASPER_SPILL_DIR", missing, "");
    ]
  in
  let saved =
    List.map
      (fun (name, _, unset) ->
        (name, Option.value (Sys.getenv_opt name) ~default:unset))
      vars
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (name, v) -> Unix.putenv name v) saved)
  @@ fun () ->
  List.iter (fun (name, v, _) -> Unix.putenv name v) vars;
  Exec.Session.with_session ~config:Exec.Config.default (fun s ->
      check_int "default session concurrency" 1 (Exec.Session.concurrency s));
  let obs = Obs.create () in
  let before = Testenv.steady_threads () in
  ignore
    (Engine.run_plan
       ~config:{ Exec.Config.default with Exec.Config.obs = Some obs }
       ~cluster:Cluster.spark
       ~datasets:[ ("w", wc_words 200) ]
       wc_plan
      : Engine.run);
  check_int "default run never spills" 0 (Obs.total obs "spill_runs");
  (match before with
  | None -> ()
  | Some n ->
      check_int "default run starts no domain" n (Testenv.settled_threads n));
  let obs = Obs.create () in
  ignore
    (Engine.run_plan
       ~config:
         {
           Exec.Config.default with
           Exec.Config.obs = Some obs;
           memory_budget = Some 1;
         }
       ~cluster:Cluster.spark
       ~datasets:[ ("w", wc_words 200) ]
       wc_plan
      : Engine.run);
  check "a spilling run uses the temp directory" true
    (Obs.total obs "spill_runs" > 0)

(* ---------------- the session's obs story ---------------- *)

let test_session_obs () =
  let obs = Obs.create () in
  let config =
    {
      Exec.Config.default with
      Exec.Config.obs = Some obs;
      concurrency = Some 1;
    }
  in
  let datasets = [ ("w", wc_words 120) ] in
  Exec.Session.with_session ~config (fun s ->
      ignore
        (completed
           (Exec.Session.await s (Exec.Session.submit s ~datasets wc_plan))
          : Engine.run);
      ignore
        (completed
           (Exec.Session.await s (Exec.Session.submit s ~datasets wc_plan))
          : Engine.run));
  check "well formed" true (Obs.well_formed obs);
  let roots = Obs.tree obs in
  let sess =
    match List.find_opt (fun v -> v.Obs.v_name = "exec.session") roots with
    | Some v -> v
    | None -> Alcotest.fail "no exec.session span flushed at shutdown"
  in
  check "session span carries the job counters" true
    (List.mem_assoc "jobs_admitted" sess.Obs.v_counters
    && List.mem_assoc "jobs_completed" sess.Obs.v_counters);
  check_int "jobs_completed counter" 2 (Obs.total obs "jobs_completed");
  let job_spans =
    List.filter (fun v -> v.Obs.v_track = "exec") (sess.Obs.v_children @ roots)
  in
  check_int "one exec-track span per job" 2 (List.length job_spans);
  check "job spans record the outcome" true
    (List.for_all
       (fun v -> List.assoc_opt "outcome" v.Obs.v_args = Some "completed")
       job_spans);
  (* concurrency 1: engine-level spans are recorded too *)
  check "engine spans present at concurrency 1" true
    (List.exists (fun v -> v.Obs.v_name = "engine.run_plan") roots)

let suite =
  [
    ( "exec.session",
      [
        Alcotest.test_case "determinism matrix vs solo run" `Quick
          test_session_determinism;
        Alcotest.test_case "settled jobs free their inputs" `Quick
          test_settled_jobs_free_inputs;
        Alcotest.test_case "FIFO dispatch order" `Quick test_fifo_order;
        Alcotest.test_case "a session's runners never exceed the host"
          `Quick test_runners_clamped_to_host;
        Alcotest.test_case "an idle session keeps no domain" `Quick
          test_idle_session_keeps_no_domain;
      ] );
    ( "exec.cancel",
      [
        Alcotest.test_case "cancel sweeps temp files" `Quick
          test_cancel_sweeps_temp_files;
        Alcotest.test_case "expired deadline reports Cancelled" `Quick
          test_deadline_reports_cancelled;
        Alcotest.test_case "queued job cancels without running" `Quick
          test_cancel_queued;
      ] );
    ( "exec.config",
      [
        Alcotest.test_case "of_env resolves the CASPER_* knobs" `Quick
          test_of_env;
        Alcotest.test_case "the library reads no environment" `Quick
          test_library_reads_no_env;
      ] );
    ( "exec.obs",
      [
        Alcotest.test_case "session span + per-job track" `Quick
          test_session_obs;
      ] );
  ]
