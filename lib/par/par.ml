(** Deterministic fork/join on a fixed-size domain pool. See par.mli.

    Determinism argument, in one place: a batch of [n] tasks writes into
    slot [j] of a results array and nothing else; tasks are pure
    (closures over immutable snapshots — the callers' obligation), so
    execution order cannot be observed. The merge walks the array in
    submission order, re-raising the first (lowest-index) captured
    exception — exactly the element the sequential [List.map] would have
    raised at, under the same purity assumption. Publication is safe:
    every result write happens before the task decrements [batch_left]
    under the pool lock, and the submitter reads the array only after
    observing [batch_left = 0] under the same lock. *)

type task = unit -> unit

(* ------------------------------------------------------------------ *)
(* Per-worker deques. The owner pops from the front, thieves steal from
   the back; both ends are cheap on a two-list queue. A mutex per deque
   keeps steals safe — tasks are coarse (a chunk of records, a whole
   candidate check), so the lock is not a contention point. *)

type deque = {
  dm : Mutex.t;
  mutable front : task list;  (** owner's end *)
  mutable back : task list;  (** submission / steal end, newest first *)
}

let deque_make () = { dm = Mutex.create (); front = []; back = [] }

let deque_push (d : deque) (t : task) : unit =
  Mutex.protect d.dm (fun () -> d.back <- t :: d.back)

let deque_pop_front (d : deque) : task option =
  Mutex.protect d.dm (fun () ->
      (match d.front with
      | [] ->
          d.front <- List.rev d.back;
          d.back <- []
      | _ -> ());
      match d.front with
      | [] -> None
      | t :: rest ->
          d.front <- rest;
          Some t)

let deque_steal (d : deque) : task option =
  Mutex.protect d.dm (fun () ->
      match d.back with
      | t :: rest ->
          d.back <- rest;
          Some t
      | [] -> (
          match d.front with
          | t :: rest ->
              d.front <- rest;
              Some t
          | [] -> None))

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)

type pool = {
  jobs : int;
  deques : deque array;  (** slot 0 = the submitting domain's deque *)
  lock : Mutex.t;  (** guards [batch_left], [live] and both conditions *)
  work_cv : Condition.t;  (** new work or shutdown *)
  done_cv : Condition.t;  (** current batch fully finished *)
  pending : int Atomic.t;  (** tasks queued, not yet dequeued *)
  mutable batch_left : int;
  mutable live : bool;
  mutable shut : bool;
  mutable domains : unit Domain.t list;
  sub : Mutex.t;  (** serializes top-level batches on this pool *)
  rr : int Atomic.t;  (** round-robin deque index for {!async} tasks *)
}

(* set while this domain is executing a pool task: nested combinator
   calls run inline (deadlock-free, and a nested search stays wholly
   inside one domain's caches) *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let on_worker () = Domain.DLS.get in_task

let exec_task (t : task) : unit =
  let saved = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task saved) t

(* Dequeue for executor [i]: own deque first, then steal round-robin
   from the siblings. *)
let take (p : pool) (i : int) : task option =
  let found =
    match deque_pop_front p.deques.(i) with
    | Some _ as r -> r
    | None ->
        let n = Array.length p.deques in
        let rec scan k =
          if k = n then None
          else
            match deque_steal p.deques.((i + k) mod n) with
            | Some _ as r -> r
            | None -> scan (k + 1)
        in
        scan 1
  in
  (match found with Some _ -> Atomic.decr p.pending | None -> ());
  found

let worker_loop (p : pool) (i : int) : unit =
  let rec loop () =
    match take p i with
    | Some t ->
        exec_task t;
        loop ()
    | None ->
        Mutex.lock p.lock;
        let rec wait () =
          if not p.live then Mutex.unlock p.lock
          else if Atomic.get p.pending > 0 then begin
            Mutex.unlock p.lock;
            loop ()
          end
          else begin
            Condition.wait p.work_cv p.lock;
            wait ()
          end
        in
        wait ()
  in
  loop ()

let create ~jobs : pool =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  let p =
    {
      jobs;
      deques = Array.init jobs (fun _ -> deque_make ());
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      pending = Atomic.make 0;
      batch_left = 0;
      live = true;
      shut = false;
      domains = [];
      sub = Mutex.create ();
      rr = Atomic.make 0;
    }
  in
  p.domains <-
    List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker_loop p (k + 1)));
  p

let size p = p.jobs

let shutdown (p : pool) : unit =
  (* taking [sub] first means no batch is in flight; workers drain any
     leftover queue entries before exiting *)
  Mutex.protect p.sub (fun () ->
      if not p.shut then begin
        Mutex.lock p.lock;
        p.live <- false;
        p.shut <- true;
        Condition.broadcast p.work_cv;
        Mutex.unlock p.lock;
        List.iter Domain.join p.domains;
        p.domains <- []
      end)

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

(** Run every thunk, each capturing its own result or exception; blocks
    until the whole batch has finished. The submitting domain executes
    tasks too (its own deque first, then steals). *)
let run_batch (p : pool) (fs : (unit -> 'b) array) : ('b, exn) result array =
  let n = Array.length fs in
  if n = 0 then [||]
  else begin
    Mutex.lock p.sub;
    Fun.protect ~finally:(fun () -> Mutex.unlock p.sub) @@ fun () ->
    if p.shut then invalid_arg "Par: pool is shut down";
    let results : ('b, exn) result array = Array.make n (Error Exit) in
    Mutex.lock p.lock;
    p.batch_left <- n;
    Mutex.unlock p.lock;
    Array.iteri
      (fun j f ->
        let t () =
          let r = try Ok (f ()) with e -> Error e in
          results.(j) <- r;
          Mutex.lock p.lock;
          p.batch_left <- p.batch_left - 1;
          if p.batch_left = 0 then Condition.broadcast p.done_cv;
          Mutex.unlock p.lock
        in
        deque_push p.deques.(j mod p.jobs) t)
      fs;
    Atomic.fetch_and_add p.pending n |> ignore;
    Mutex.lock p.lock;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.lock;
    (* help execute until the batch is done *)
    let rec help () =
      match take p 0 with
      | Some t ->
          exec_task t;
          help ()
      | None ->
          Mutex.lock p.lock;
          while p.batch_left > 0 do
            Condition.wait p.done_cv p.lock
          done;
          Mutex.unlock p.lock
    in
    help ();
    results
  end

(* Wait on [done_cv] requires tasks to signal it even when the submitter
   is the one finishing the last task: the task wrapper above broadcasts
   under the lock regardless of which domain runs it, and the submitter
   re-checks [batch_left] under the same lock, so the handoff cannot be
   missed. *)

(** Submission-order merge: first (lowest-index) captured exception
    re-raised, else the values in order. *)
let merge_results (results : ('b, exn) result array) : 'b list =
  let n = Array.length results in
  let rec first_error i =
    if i = n then None
    else match results.(i) with Error e -> Some e | Ok _ -> first_error (i + 1)
  in
  match first_error 0 with
  | Some e -> raise e
  | None ->
      List.init n (fun i ->
          match results.(i) with Ok v -> v | Error _ -> assert false)

let inline_pool (p : pool) : bool = p.jobs = 1 || on_worker ()

let parallel_map (p : pool) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if p.shut then invalid_arg "Par: pool is shut down";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when inline_pool p -> List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      merge_results (run_batch p (Array.map (fun x () -> f x) arr))

(* ------------------------------------------------------------------ *)
(* Self-exiting workers: a map with no pool behind it                  *)

(* [spawn_map ~jobs f xs]: up to [jobs - 1] fresh domains and the caller
   claim indices from one atomic counter until the list is exhausted;
   a spawned domain then returns, so none outlives the call. No domain
   ever blocks waiting for work: an idle domain still has to join every
   stop-the-world minor collection, which slows down the domains that
   are working (DESIGN.md §10). Same determinism argument as a batch:
   slot [i] is written only by the domain that claimed [i], and
   [Domain.join] publishes it to the caller. *)
let spawn_map ~jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if jobs < 1 then invalid_arg "Par.spawn_map: jobs must be >= 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 || on_worker () -> List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results : ('b, exn) result array = Array.make n (Error Exit) in
      let next = Atomic.make 0 in
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- (try Ok (f arr.(i)) with e -> Error e);
          claim ()
        end
      in
      let work () = exec_task claim in
      (* a domain that cannot be spawned (the runtime's domain limit)
         only narrows the map: the caller claims what is left *)
      let rec spawn k acc =
        if k = 0 then acc
        else
          match Domain.spawn work with
          | d -> spawn (k - 1) (d :: acc)
          | exception Failure _ -> acc
      in
      let domains = spawn (min jobs n - 1) [] in
      work ();
      List.iter Domain.join domains;
      merge_results results

(* contiguous balanced chunks: sizes differ by at most one, order kept *)
let chunk_list (k : int) (xs : 'a list) : 'a list list =
  let n = List.length xs in
  let k = max 1 (min k n) in
  let base = n / k and extra = n mod k in
  let rec split_at i acc xs =
    if i = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> split_at (i - 1) (x :: acc) rest
  in
  let rec go i xs acc =
    if i = k then List.rev acc
    else
      let len = base + if i < extra then 1 else 0 in
      let c, rest = split_at len [] xs in
      go (i + 1) rest (c :: acc)
  in
  go 0 xs []

let chunks = chunk_list

let chunked (p : pool) ~(chunks_per_job : int) (g : 'a list -> 'b)
    (xs : 'a list) : 'b list =
  let chunks = chunk_list (chunks_per_job * p.jobs) xs in
  parallel_map p g chunks

let parallel_chunks ?(chunks_per_job = 2) (p : pool) (f : 'a -> 'b)
    (xs : 'a list) : 'b list =
  if inline_pool p then List.map f xs
  else List.concat (chunked p ~chunks_per_job (List.map f) xs)

let concat_map ?(chunks_per_job = 2) (p : pool) (f : 'a -> 'b list)
    (xs : 'a list) : 'b list =
  if inline_pool p then List.concat_map f xs
  else List.concat (chunked p ~chunks_per_job (List.concat_map f) xs)

let filter ?(chunks_per_job = 2) (p : pool) (f : 'a -> bool) (xs : 'a list) :
    'a list =
  if inline_pool p then List.filter f xs
  else List.concat (chunked p ~chunks_per_job (List.filter f) xs)

(* ------------------------------------------------------------------ *)
(* Futures: individual tasks dispatched without a batch barrier. The
   session dispatcher (lib/exec) needs fire-and-forget submission — a
   job is one coarse task whose completion is signalled through its own
   future, not through the pool-wide [done_cv] barrier that [run_batch]
   uses. Async tasks and batch tasks share the deques and the [pending]
   counter, so workers (and helping owners) drain both kinds. *)

type 'a future = {
  fm : Mutex.t;
  fcv : Condition.t;
  mutable fstate : ('a, exn) result option;  (** [None] while pending *)
}

let async (p : pool) (f : unit -> 'a) : 'a future =
  if p.shut then invalid_arg "Par: pool is shut down";
  let fut = { fm = Mutex.create (); fcv = Condition.create (); fstate = None } in
  let t () =
    let r = try Ok (f ()) with e -> Error e in
    Mutex.lock fut.fm;
    fut.fstate <- Some r;
    Condition.broadcast fut.fcv;
    Mutex.unlock fut.fm
  in
  (* round-robin placement spreads independent tasks across deques so a
     burst of async submissions doesn't pile onto one worker *)
  let slot = Atomic.fetch_and_add p.rr 1 mod p.jobs in
  deque_push p.deques.(slot) t;
  Atomic.incr p.pending;
  Mutex.lock p.lock;
  Condition.broadcast p.work_cv;
  Mutex.unlock p.lock;
  fut

let peek (fut : 'a future) : ('a, exn) result option =
  Mutex.protect fut.fm (fun () -> fut.fstate)

let is_done (fut : 'a future) : bool = Option.is_some (peek fut)

(** Execute at most one queued task on the calling domain. *)
let help (p : pool) : bool =
  match take p 0 with
  | Some t ->
      exec_task t;
      true
  | None -> false

let await (p : pool) (fut : 'a future) : 'a =
  (* the calling domain helps drain the pool while the future is
     pending, so a jobs=1 pool (no workers) still completes async
     work; when nothing is takeable some other domain is running the
     task and will broadcast [fcv] *)
  let rec loop () =
    Mutex.lock fut.fm;
    match fut.fstate with
    | Some r ->
        Mutex.unlock fut.fm;
        r
    | None ->
        Mutex.unlock fut.fm;
        if help p then loop ()
        else begin
          Mutex.lock fut.fm;
          (match fut.fstate with
          | None -> Condition.wait fut.fcv fut.fm
          | Some _ -> ());
          Mutex.unlock fut.fm;
          loop ()
        end
  in
  match loop () with Ok v -> v | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Task granularity for array-backed stages                            *)

(* [task_ranges ~records_per_task ~jobs n]: contiguous [(pos, len)]
   ranges covering [0, n), in index order, sizes differing by at most
   one. The count is [min (2 * jobs) (ceil (n / records_per_task))] —
   at most two tasks per domain (steal balance), never finer than the
   granularity floor, below which per-record work is so cheap that task
   handoff would dominate (DESIGN.md §11). The floor is the caller's
   value, so a run that forces tiny tasks changes nothing else. *)
let task_ranges ~records_per_task ~jobs (n : int) : (int * int) array =
  if n <= 0 then [||]
  else begin
    let per = max 1 records_per_task in
    let by_floor = (n + per - 1) / per in
    let k = max 1 (min by_floor (2 * max 1 jobs)) in
    Array.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        (lo, hi - lo))
  end

(* ------------------------------------------------------------------ *)
(* Pool sizing                                                         *)

(* [recommended_jobs requested] clamps a requested pool size to the
   host's [Domain.recommended_domain_count]: asking for more domains
   than cores makes the engine *slower* (oversubscribed stealing), so a
   binary sizing a pool from a flag never oversubscribes. Explicit
   [create ~jobs] is left unclamped — determinism tests deliberately run
   4-domain pools on 1-core hosts. Warns once per process when
   clamping. *)
let recommended_jobs (requested : int) : int =
  let host = Domain.recommended_domain_count () in
  if requested > host then begin
    ignore
      (Casper_obs.Obs.warn_once ~key:"par.jobs-clamped"
         (Printf.sprintf
            "requested %d jobs but host recommends %d domains; clamping \
             (explicit Par.create ~jobs is not clamped)"
            requested host));
    host
  end
  else requested
