(** Deterministic parallelism on self-exiting OCaml 5 domains.

    There is no pool: no domain waits idle for work, because an idle
    domain still joins every stop-the-world minor collection (DESIGN.md
    §10). {!spawn_map} spawns its domains per call; they claim elements
    until none is left and exit, and the call joins them before it
    returns. Elements execute out of order, but results are merged in
    index order, which makes outputs byte-identical to the sequential
    run at any [jobs] ([jobs = 1] runs inline and spawns nothing).
    Exceptions are deterministic too: if any element raises, the map
    re-raises the exception of the lowest-index raising element after
    every element has been processed, so a raising element leaks no
    domain.

    Maps called from inside a map task run inline sequentially (same
    results — a nested map just loses its parallelism), so a task
    spawns no domains of its own.

    {!spawn} is the one way onto another domain: no code outside
    [lib/par] calls [Domain.spawn]. *)

(** [spawn f] runs [f] on a new domain; [None] when the runtime refuses
    one (its domain limit), so a caller narrows its parallelism instead
    of failing. The caller joins the domain, or lets it exit on its
    own. *)
val spawn : (unit -> 'a) -> 'a Domain.t option

(** True while executing inside a {!spawn_map} task — the condition
    under which maps run inline. *)
val on_worker : unit -> bool

(** [spawn_map ~jobs f xs = List.map f xs], with [f] applied across
    [min jobs (List.length xs)] domains: the caller and
    [min jobs (List.length xs) - 1] freshly spawned domains each claim
    the next unclaimed element until none is left, and a spawned domain
    exits as soon as the list is exhausted. All are joined before the
    call returns, so no domain outlives it. When it spawns, [f] runs
    as a task ({!on_worker} holds), so nested maps run inline. If any
    element raises, the lowest-index raiser's exception is re-raised
    once every element has been processed. Runs inline with [jobs = 1],
    from inside a task, and on fewer than two elements. A domain the
    runtime refuses only narrows the map. [jobs < 1] raises
    [Invalid_argument]. *)
val spawn_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [recommended_jobs requested] is [requested] clamped to
    [Domain.recommended_domain_count ()]. Warns once per process (via
    [Obs.warn_once]) when the request exceeds the host's core count —
    oversubscribed domains run *slower* than sequential. Explicit
    {!spawn_map} calls are not clamped. *)
val recommended_jobs : int -> int
