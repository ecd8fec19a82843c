(** Casper's search algorithm for program summaries (paper Figure 5):
    incremental CEGIS with two-phase verification and candidate
    blocking. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang

(** Search configuration. The candidate budget is the 90-minute-timeout
    proxy; [incremental = false] is Table 3's flat-grammar ablation. The
    states each phase checks are {!Casper_verify.Verifier.states}. *)
type config = {
  incremental : bool;
  max_candidates : int;
  max_solutions : int;
  explore_all : bool;
      (** keep climbing the class hierarchy after a class yields verified
          summaries, to collect shape-diverse equivalents for dynamic
          tuning (§7.4) *)
}

val default_config : config

(** A verified summary with the metadata codegen and the cost model
    need. *)
type solution = {
  summary : Ir.summary;
  klass : int;  (** grammar class it was found in *)
  comm_assoc : bool;
      (** every reduction commutative-associative → [reduceByKey] *)
  static_cost : float;  (** Eqns 2–4 at the static estimator *)
}

type stats = {
  candidates_tried : int;
  cegis_iterations : int;
  tp_failures : int;  (** full-verifier rejections — Table 2 *)
  classes_explored : int;
  elapsed_s : float;
  timed_out : bool;  (** budget exhausted with no solution *)
}

type outcome = { solutions : solution list; stats : stats }

(** {2 The Φ check of the CEGIS inner loop}

    Exposed so tests can drive it candidate by candidate. *)

(** One search's Φ, dead sets, blocked set and counts. *)
type search_state

(** A search state over the counter-example states [phi] (parameter
    environments), with a budget of [budget] candidates. *)
val make_state :
  ?phi:Minijava.Interp.env list ->
  Minijava.Ast.program ->
  F.t ->
  budget:int ->
  search_state

(** [holds_on_phi st frag c]: does candidate [c] hold on every state of
    Φ? The states are checked newest first, up to the first that
    refutes [c]. A refutation is kept search-wide under the candidate's
    key; one reached before any λr ran is also kept under its family
    key (the candidates that differ from it only in λr) and, when it
    names an output, under that output's projection key. The check
    itself reads none of them: the enumerator does, before it builds a
    candidate. *)
val holds_on_phi : search_state -> F.t -> Enumerate.cand -> bool

(** The keys Φ has refuted so far in this search. *)
val dead : search_state -> Enumerate.dead

(** IR typing environment of a fragment's free scalars. *)
val tenv_of_frag : Minijava.Ast.program -> F.t -> Casper_ir.Infer.tenv

(** Figure 5 lines 10–24: the full search. Cost-sorted verified
    summaries; empty when the fragment is unsupported or the space is
    exhausted/budget spent without a verifiable candidate.

    [obs] (default disabled) records the search as spans — "synthesis" →
    "grammar" / per-"class" → "round" → "bounded-verify", plus
    "full-verify" — with candidate, iteration, TP-failure, memo-hit,
    unbuilt-candidate and blocked-set counters;
    it also supplies the clock behind
    [elapsed_s], so a virtual-clock context makes the statistic
    deterministic.

    The search runs on the calling domain from start to finish. Every
    table it fills (its interner, fingerprint cells, blocked and dead
    sets) is its own and is freed with it, so searches share nothing,
    one nested in another included. *)
val find_summary :
  ?obs:Casper_obs.Obs.ctx ->
  ?config:config ->
  Minijava.Ast.program ->
  F.t ->
  outcome
