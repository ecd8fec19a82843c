(** Observational fingerprints and incremental prefixes.

    - A [probe_set] is a search's probe environments together with the
      cells computed on them. It owns its tables: they are freed with
      it, and two probe sets never share a cell.
    - [cells] is an expression's observational fingerprint on a probe
      set: the id of its printed value on every probe (errors intern as
      ["#err"]), computed once per (probe set, expression). Interning by
      the printed string — not by the structural value — reproduces
      exactly the observational-equivalence classes of the original
      string-concatenation fingerprints (e.g. [Int 1] and [Float 1.0]
      both print as ["1"] and must stay in one class). Two expressions
      share a fingerprint exactly when they print the same values on
      every probe ([fastpath.dedup] checks emit dedup against a dedup by
      printed strings).
    - [stage_prefixes] runs a candidate's pipeline on the growing
      prefixes of one state's data, folding in only the records each
      prefix adds ([verify.incremental] checks it against
      {!Eval.stage_node} run from scratch).

    Every expression is evaluated by {!Eval}: [eval_expr] for a cell,
    staged closures for a prefix. A probe set's [counts] tally the cell
    arrays reused and computed; the probe sets of one search share one
    tally, which the [synthesis] span reports. Each mechanism is kept
    honest by a narrow reference test of its own (DESIGN.md §9), not by
    the counters. *)

(** Cell-cache effectiveness of one search. *)
type counts = {
  mutable cell_hits : int;  (** per-(probe set, expr) cell arrays reused *)
  mutable cell_misses : int;  (** cell arrays computed *)
}

(** A probe set: probe environments and the cells computed on them.
    Cell arrays are cached per expression, so a combination of pool
    components copies cached arrays instead of evaluating a cell per
    probe: every (guard, key, value) emit reads all three components on
    every probe, and one pool expression recurs in hundreds of
    combinations. The arrays become fingerprint keys: they are never
    mutated. *)
type probe_set = {
  ps_envs : Eval.env array;
  ps_counts : counts;  (** shared by the probe sets of one search *)
  ps_values : (string, int) Hashtbl.t;
      (** printed value -> small id, so fingerprints are int arrays *)
  ps_cells : int array Hashcons.Tbl.t;  (** expression -> its cells *)
  ps_fires : bool array Hashcons.Tbl.t;  (** guard -> where it fires *)
}

(** [probe_set counts envs]: a probe set over [envs] with empty
    tables, tallying its cells in [counts]. *)
val probe_set : counts -> Eval.env list -> probe_set

(** [e]'s fingerprint cells on [ps]: on every probe, in probe order, the
    id of [e]'s printed value (["#err"] on an evaluation error). *)
val cells : probe_set -> Lang.expr -> int array

(** Where guard [g] fires on the probes of [ps]: [bool_of] is
    [Some true]; a non-boolean result or an error does not fire. *)
val fires : probe_set -> Lang.expr -> bool array

(** Observational fingerprint key: interned value-cell ids, one or more
    per probe ({!cells} for an expression). Within one probe set, one
    printed-value sequence maps to one key. *)
type fp = int array

(** Hash table keyed by fingerprints. The generic hash only examines ~10
    values; id arrays over up to 48 probes need every slot hashed or
    buckets collapse. *)
module Fp_tbl : Hashtbl.S with type key = fp

(** [Eval.stage_node ~lr_ran env n], for a caller that runs the result
    on prefixes 0, 1, 2, … of one state's data, in that order, and stops
    at the first exception. A map over source data, optionally reduced
    and then mapped once more, runs incrementally: each prefix maps only
    the records it adds (DESIGN.md §16). Every other pipeline is staged by
    {!Eval.stage_node} and re-run from scratch on each prefix. The
    result is the pipeline's bag: the caller extracts the outputs.

    [lr_ran] is set when a λr is applied. While it stays unset no key
    held two values, so every run so far computed the same bag, or
    raised the same error, whatever the λrs are (staging a λr never
    raises). *)
val stage_prefixes :
  lr_ran:bool ref -> Eval.env -> Lang.node -> Eval.staged_node
