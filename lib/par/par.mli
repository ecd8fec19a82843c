(** Deterministic fork/join on a fixed-size OCaml 5 domain pool.

    A pool owns [jobs - 1] worker domains that take tasks from one FIFO
    queue. Both maps ({!parallel_map} on a pool, {!spawn_map} on
    self-exiting domains) run one claim loop: the caller and its helpers
    each claim the next unclaimed element, so elements execute out of
    order — but results are merged in index order, which makes outputs
    byte-identical to the sequential run at any pool size (size 1 runs
    inline and spawns nothing). Exceptions are deterministic too: if any
    element raises, the map re-raises the exception of the lowest-index
    raising element after every element has been processed, so a raising
    element can neither wedge the pool nor leak domains.

    Maps called from inside a pool task run inline sequentially (same
    results — a nested map just loses its parallelism), which both
    prevents submission deadlock and keeps domain-local caches (memo
    shards, interners) consistent within one logical search. *)

type pool

(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs < 1] raises
    [Invalid_argument]. [jobs = 1] spawns nothing: every map runs inline. *)
val create : jobs:int -> pool

(** Total parallelism of the pool (the [jobs] it was created with). *)
val size : pool -> int

(** Join all worker domains. Idempotent; using the pool afterwards
    raises [Invalid_argument]. *)
val shutdown : pool -> unit

(** [create], run, [shutdown] — also on exceptions. *)
val with_pool : jobs:int -> (pool -> 'a) -> 'a

(** True while executing inside a pool task (on any pool) — the
    condition under which maps run inline. *)
val on_worker : unit -> bool

(** [parallel_map pool f xs = List.map f xs], with [f] applied to the
    elements out of order: the caller and [min (size pool) n - 1] helper
    tasks queued on the pool claim elements until none is left. The
    caller never waits for a helper that has not started (it claims
    those elements itself), so a batch finishes even while every worker
    is busy, and several domains may map on one pool at once. Raises
    [Invalid_argument] on a shut-down pool. *)
val parallel_map : pool -> ('a -> 'b) -> 'a list -> 'b list

(** [spawn_map ~jobs f xs = List.map f xs], with [f] applied across
    [min jobs (List.length xs)] domains and no pool: the caller and
    [min jobs (List.length xs) - 1] freshly spawned domains each claim
    the next unclaimed element until none is left, and a spawned domain
    exits as soon as the list is exhausted. All are joined before the
    call returns, so no domain outlives it. When it spawns, [f] runs
    as a task ({!on_worker} holds), so nested maps run inline.
    Exceptions follow {!parallel_map}: the lowest-index raiser's
    exception is re-raised once every element has been processed. Runs
    inline with [jobs = 1], from inside a task, and on fewer than two
    elements. [jobs < 1] raises [Invalid_argument].

    For a few coarse, unequal tasks (a program's fragment searches):
    unlike a pool, no domain waits idle for work while others run. *)
val spawn_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(* ------------------------------------------------------------------ *)
(* Single tasks: the session dispatcher's submission primitive
   (lib/exec).                                                         *)

(** [async pool t] queues [t] as a single task and returns immediately.
    The task runs on whichever domain takes it first — a worker, or a
    domain helping via {!help}. An exception that escapes [t] is
    dropped, and the domain running it carries on. A task still queued
    when a [jobs = 1] pool shuts down never runs: drain before
    {!shutdown}. Raises [Invalid_argument] on a shut-down pool. *)
val async : pool -> (unit -> unit) -> unit

(** Execute at most one queued task on the calling domain; [true] if
    one ran. The waiting primitive for dispatchers that track
    completion through their own condition variables. *)
val help : pool -> bool

(* ------------------------------------------------------------------ *)
(* Pool sizing                                                         *)

(** [recommended_jobs requested] is [requested] clamped to
    [Domain.recommended_domain_count ()]. Warns once per process (via
    [Obs.warn_once]) when the request exceeds the host's core count —
    oversubscribed domain pools run *slower* than sequential. Explicit
    {!create} calls are not clamped. *)
val recommended_jobs : int -> int
