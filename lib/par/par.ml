(** Deterministic fork/join on a fixed-size domain pool. See par.mli.

    Determinism argument, in one place: both maps run one claim loop
    over a batch — an item array, a slot array and an [Atomic] next
    index. The caller and its helpers each claim the next unclaimed
    index and write slot [i] only for an index [i] they claimed; [f] is
    pure (closures over immutable snapshots — the callers' obligation),
    so which domain claims what cannot be observed. The merge walks the
    slots in index order, re-raising the first (lowest-index) captured
    exception — exactly the element the sequential [List.map] would have
    raised at, under the same purity assumption. Publication: a pool
    helper adds its count of finished elements under the pool lock after
    its last slot write, and the caller reads the slots only after it
    has seen all [n] counted under that lock; [spawn_map]'s domains are
    published by [Domain.join]. *)

type task = unit -> unit

type pool = {
  jobs : int;
  lock : Mutex.t;  (** guards [queue], [live], [domains] and batch counts *)
  cv : Condition.t;  (** a task queued, a batch finished, or shutdown *)
  queue : task Queue.t;  (** FIFO: {!async} tasks and batch helpers *)
  mutable live : bool;
  mutable domains : unit Domain.t list;
}

(* set while this domain is executing a pool task: nested map
   calls run inline (deadlock-free, and a nested search stays wholly
   inside one domain's caches) *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let on_worker () = Domain.DLS.get in_task

let exec_task (t : unit -> 'a) : 'a =
  let saved = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task saved) t

(* A batch helper captures its elements' exceptions in their slots, so
   only an {!async} task can raise here. Nobody waits on it: the
   exception is dropped and the executing domain carries on. *)
let run_task (t : task) : unit = try exec_task t with _ -> ()

(* A worker exits once the pool is shut down and its queue drained. *)
let rec worker_loop (p : pool) : unit =
  Mutex.lock p.lock;
  while Queue.is_empty p.queue && p.live do
    Condition.wait p.cv p.lock
  done;
  let t = Queue.take_opt p.queue in
  Mutex.unlock p.lock;
  match t with
  | Some t ->
      run_task t;
      worker_loop p
  | None -> ()

let create ~jobs : pool =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  let p =
    {
      jobs;
      lock = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      live = true;
      domains = [];
    }
  in
  p.domains <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let size p = p.jobs

let shutdown (p : pool) : unit =
  let domains =
    Mutex.protect p.lock (fun () ->
        let ds = p.domains in
        p.live <- false;
        p.domains <- [];
        Condition.broadcast p.cv;
        ds)
  in
  List.iter Domain.join domains

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* One condition variable serves workers and waiting callers alike, so
   every wake-up is a broadcast: a [signal] could reach a caller instead
   of the worker the new task needs. *)
let async (p : pool) (t : task) : unit =
  Mutex.protect p.lock (fun () ->
      if not p.live then invalid_arg "Par: pool is shut down";
      Queue.add t p.queue;
      Condition.broadcast p.cv)

let help (p : pool) : bool =
  match Mutex.protect p.lock (fun () -> Queue.take_opt p.queue) with
  | Some t ->
      run_task t;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* The claim loop                                                      *)

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

(* [claim_map ~jobs ~start f xs]: the caller and [min jobs n - 1]
   helpers claim indices until none is left. [start n k work] launches
   the [k] helpers, each running [work] (which returns how many elements
   it finished), and returns [wait]; the caller runs [work] too, and
   [wait] gets the caller's count and returns once every slot is
   visible to the caller. [work] runs as a task, so anything nested in
   [f] runs inline. *)
let claim_map ~jobs ~start (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let items = Array.of_list xs in
  let n = Array.length items in
  let slots : ('b, exn) result array = Array.make n (Error Exit) in
  let next = Atomic.make 0 in
  let rec claim finished =
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then finished
    else begin
      slots.(i) <- (try Ok (f items.(i)) with e -> Error e);
      claim (finished + 1)
    end
  in
  let work () = exec_task (fun () -> claim 0) in
  let wait = start n (min jobs n - 1) work in
  wait (work ());
  merge_results slots

(* A helper that starts after the caller has claimed everything finds
   nothing and returns, so a batch never waits on a busy worker: the
   caller waits only for elements some helper is running. *)
let parallel_map (p : pool) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if not p.live then invalid_arg "Par: pool is shut down";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when p.jobs = 1 || on_worker () -> List.map f xs
  | _ ->
      let start n k work =
        let finished = ref 0 in
        let helper () =
          let c = work () in
          if c > 0 then
            Mutex.protect p.lock (fun () ->
                finished := !finished + c;
                if !finished = n then Condition.broadcast p.cv)
        in
        Mutex.protect p.lock (fun () ->
            for _ = 1 to k do
              Queue.add helper p.queue
            done;
            Condition.broadcast p.cv);
        fun mine ->
          Mutex.protect p.lock (fun () ->
              finished := !finished + mine;
              while !finished < n do
                Condition.wait p.cv p.lock
              done)
      in
      claim_map ~jobs:p.jobs ~start f xs

(* No spawned domain ever blocks waiting for work: an idle domain still
   has to join every stop-the-world minor collection, which slows down
   the domains that are working (DESIGN.md §10). *)
let spawn_map ~jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if jobs < 1 then invalid_arg "Par.spawn_map: jobs must be >= 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 || on_worker () -> List.map f xs
  | _ ->
      let start _n k work =
        (* a domain that cannot be spawned (the runtime's domain limit)
           only narrows the map: the caller claims what is left *)
        let rec spawn k acc =
          if k = 0 then acc
          else
            match Domain.spawn work with
            | d -> spawn (k - 1) (d :: acc)
            | exception Failure _ -> acc
        in
        let domains = spawn k [] in
        fun _mine -> List.iter (fun d -> ignore (Domain.join d : int)) domains
      in
      claim_map ~jobs ~start f xs

(* ------------------------------------------------------------------ *)
(* Pool sizing                                                         *)

(* [recommended_jobs requested] clamps a requested pool size to the
   host's [Domain.recommended_domain_count]: asking for more domains
   than cores makes the work *slower* (oversubscribed domains), so a
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
