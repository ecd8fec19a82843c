(** Instrumentation for the synthesis fast path.

    The search has one path: hash-consed expressions, memoized
    evaluation, interned fingerprints, construction keys and cached
    verification batches and verdicts are how it runs, not an option.
    What keeps each of those mechanisms honest is a narrow reference
    test of its own (DESIGN.md §9); the counters below only say how much
    work the caches saved. *)

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
