(** Global switch and instrumentation for the synthesis fast path.

    The fast path (hash-consed expressions, memoized evaluation, cached
    verification batches and verdicts) is a pure optimization: with the
    switch off, every cache is bypassed and the search recomputes from
    scratch, but the keying and fingerprint schemes are shared between
    the two modes, so the searched candidate order and the returned
    solutions and statistics are bit-identical either way (enforced by
    the on/off equivalence tests). The off path is the reference the
    whole fast-path search (bulk counts, dedup partitions, blocked keys)
    is checked against, and [with_enabled] exists for exactly two
    callers: the on/off equivalence tests and difftest's fast-path
    on/off stage. *)

(* Domain-local: a search runs on one domain, and difftest's pool
   workers each run whole searches concurrently, so each domain toggles
   its own switch and a baseline run on one domain cannot turn caches
   off under a fast-path run on another. Fresh domains start enabled —
   the default mode. *)
let enabled_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref true)

let enabled () = !(Domain.DLS.get enabled_key)

(** Run [f ()] with the calling domain's fast path forced to [b],
    restoring the previous setting afterwards (also on exceptions). *)
let with_enabled b f =
  let r = Domain.DLS.get enabled_key in
  let saved = !r in
  r := b;
  Fun.protect ~finally:(fun () -> r := saved) f

(** Cache-effectiveness counters, read by the [synthesis] span and the
    tests. All are cumulative. *)
type counters = {
  mutable eval_hits : int;  (** memoized (expr, env) evaluations reused *)
  mutable eval_misses : int;  (** memoized evaluations computed *)
  mutable cell_hits : int;  (** per-(probe set, expr) cell arrays reused *)
  mutable cell_misses : int;  (** cell arrays computed *)
  mutable phi_hits : int;  (** Φ-state verdicts reused across candidates *)
  mutable verdict_hits : int;
      (** bounded/full verdicts reused by construction key *)
  mutable loop_units : int;
      (** outer loop units run by prepared prefixes: one per prefix
          cell resumed from its predecessor, which runs at most one *)
}

let zero () =
  {
    eval_hits = 0;
    eval_misses = 0;
    cell_hits = 0;
    cell_misses = 0;
    phi_hits = 0;
    verdict_hits = 0;
    loop_units = 0;
  }

(* Domain-local, like the memo shards they count: searches running on
   other domains never write to the caller's record, so a delta taken
   on one domain is that domain's work. *)
let counters_key : counters Domain.DLS.key = Domain.DLS.new_key zero

(** The calling domain's counters. *)
let counters () : counters = Domain.DLS.get counters_key
