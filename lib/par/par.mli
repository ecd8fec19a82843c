(** Deterministic fork/join on a fixed-size OCaml 5 domain pool.

    A pool owns [jobs - 1] worker domains plus the submitting domain,
    each with its own work-stealing deque: a worker pops its own deque
    from the front and steals from the back of its siblings, so tasks
    execute out of order — but every combinator merges results in
    submission order, which makes outputs byte-identical to the
    sequential run at any pool size (size 1 runs inline and spawns
    nothing). Exceptions are deterministic too: if any task raises, the
    combinator re-raises the exception of the lowest-index raising task
    after all tasks of the batch have finished, so a raising task can
    neither wedge the pool nor leak domains.

    Combinators called from inside a pool task run inline sequentially
    (same results — a nested batch just loses its parallelism), which
    both prevents submission deadlock and keeps domain-local caches
    (memo shards, interners) consistent within one logical search. *)

type pool

(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs < 1] raises
    [Invalid_argument]. [jobs = 1] spawns nothing: every combinator runs
    inline. *)
val create : jobs:int -> pool

(** Total parallelism of the pool (the [jobs] it was created with). *)
val size : pool -> int

(** Join all worker domains. Idempotent; using the pool afterwards
    raises [Invalid_argument]. *)
val shutdown : pool -> unit

(** [create], run, [shutdown] — also on exceptions. *)
val with_pool : jobs:int -> (pool -> 'a) -> 'a

(** True while executing inside a pool task (on any pool) — the
    condition under which combinators run inline. *)
val on_worker : unit -> bool

(** [parallel_map pool f xs = List.map f xs], with [f] applied to the
    elements out of order across the pool's domains. One task per
    element — use {!parallel_chunks} when [f] is cheap relative to task
    overhead. *)
val parallel_map : pool -> ('a -> 'b) -> 'a list -> 'b list

(** [spawn_map ~jobs f xs = List.map f xs], with [f] applied across
    [min jobs (List.length xs)] domains and no pool: the caller and
    [min jobs (List.length xs) - 1] freshly spawned domains each claim
    the next unclaimed element until none is left, and a spawned domain
    exits as soon as the list is exhausted. All are joined before the
    call returns, so no domain outlives it. When it spawns, [f] runs
    as a task ({!on_worker} holds), so nested combinators run inline.
    Exceptions follow {!parallel_map}: the lowest-index raiser's
    exception is re-raised once every element has been processed. Runs
    inline with [jobs = 1], from inside a task, and on fewer than two
    elements. [jobs < 1] raises [Invalid_argument].

    For a few coarse, unequal tasks (a program's fragment searches):
    unlike a pool, no domain waits idle for work while others run. *)
val spawn_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_chunks pool f xs = List.map f xs], executed as
    [chunks_per_job * size pool] contiguous chunks (one task per chunk).
    *)
val parallel_chunks :
  ?chunks_per_job:int -> pool -> ('a -> 'b) -> 'a list -> 'b list

(** [concat_map pool f xs = List.concat_map f xs], chunked like
    {!parallel_chunks}. *)
val concat_map :
  ?chunks_per_job:int -> pool -> ('a -> 'b list) -> 'a list -> 'b list

(** [filter pool p xs = List.filter p xs], chunked like
    {!parallel_chunks}. *)
val filter : ?chunks_per_job:int -> pool -> ('a -> bool) -> 'a list -> 'a list

(** [chunks k xs]: [xs] split into [min k (max 1 (length xs))]
    contiguous chunks whose sizes differ by at most one —
    [List.concat (chunks k xs) = xs]. For callers that chunk manually
    (e.g. to put a span around each chunk). *)
val chunks : int -> 'a list -> 'a list list

(* ------------------------------------------------------------------ *)
(* Futures: individual tasks without a batch barrier — the session
   dispatcher's submission primitive (lib/exec).                       *)

(** The pending/completed state of one {!async} task. *)
type 'a future

(** [async pool f] enqueues [f] as a single task (round-robin across
    the pool's deques) and returns immediately. The task runs on
    whichever domain dequeues it first — a worker, or any domain
    helping via {!help} / {!await}. Exceptions are captured in the
    future and re-raised by {!await}. Raises [Invalid_argument] on a
    shut-down pool. *)
val async : pool -> (unit -> 'a) -> 'a future

(** [await pool fut] blocks until [fut] completes, re-raising its
    captured exception. While waiting the calling domain helps execute
    queued tasks, so a [jobs = 1] pool still completes async work —
    which also means [await] may run unrelated queued tasks inline.
    Call from the pool's submitting side, not from inside a task that
    the awaited future transitively depends on. A future whose task is
    still queued when the pool shuts down never completes: drain
    futures before {!shutdown}. *)
val await : pool -> 'a future -> 'a

(** Completed (successfully or not)? Never blocks. *)
val is_done : 'a future -> bool

(** Execute at most one queued task on the calling domain; [true] if
    one ran. The waiting primitive for dispatchers that track
    completion through their own condition variables. *)
val help : pool -> bool

(* ------------------------------------------------------------------ *)
(* Task granularity for array-backed stages (engine data plane).       *)

(** [task_ranges ~records_per_task ~jobs n]: contiguous [(pos, len)]
    ranges covering [0, n) in index order, sizes differing by at most
    one. At most [2 * jobs] ranges, and no more than
    [ceil (n / records_per_task)] — the granularity floor, so an input
    of at most [records_per_task] records is one range. [[||]] when
    [n <= 0]. *)
val task_ranges : records_per_task:int -> jobs:int -> int -> (int * int) array

(* ------------------------------------------------------------------ *)
(* Pool sizing                                                         *)

(** [recommended_jobs requested] is [requested] clamped to
    [Domain.recommended_domain_count ()]. Warns once per process (via
    [Obs.warn_once]) when the request exceeds the host's core count —
    oversubscribed domain pools run *slower* than sequential. Explicit
    {!create} calls are not clamped. *)
val recommended_jobs : int -> int
