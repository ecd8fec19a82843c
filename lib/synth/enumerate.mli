(** Candidate-summary enumeration: traversing a grammar class.

    Expands the production rules of a grammar class into concrete
    summaries, lazily ([Seq.t]) and in roughly increasing structural
    size — pools are size-sorted, so cheap candidates surface first and
    the search is biased towards inexpensive summaries (§4.2).

    Pipeline shapes follow Figure 6's hierarchy:
    - 1 op:  [reduce(data)] (scalar lists), [map(data)] (keyed outputs)
    - 2 ops: [reduce(map(data))] — keyed or global
    - 3 ops: [map(reduce(map(data)))]
    - join fragments: [reduce(map(join(map(d1), map(d2))))] *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module G = Grammar

(** Observational dedup of emit candidates on the pools' probes, keeping
    the first emit of each behaviour, in order, capped at [limit]
    (default 512) survivors. *)
val dedupe_emits : G.pools -> ?limit:int -> Ir.emit list -> Ir.emit list

type cand = {
  summary : Ir.summary;
  key : int;  (** construction key *)
  family : int;  (** construction key without the reducer id *)
  projs : (string * int) list;
      (** keyed shape: each output variable with its projection key *)
}

(** What the enumerator yields: a built candidate, or [n] consecutive
    candidates that Φ has already refuted, left unbuilt. [cids] are
    their construction keys, for the consumer to skip the blocked ones
    among them as it would skip them one by one. *)
type item = Cand of cand | Bulk of { n : int; cids : int list Lazy.t }

(** One search's refutations, search-wide: Φ only grows, so a key
    refuted once stays refuted. Candidate keys live apart from family
    and projection keys: both are interned int lists, and a family list
    [[6; e1; e2]] is also the candidate list of [[6; e; rid]] whenever an
    emit id equals a reducer id. *)
type dead = {
  cands : (int, unit) Hashtbl.t;  (** refuted candidate keys *)
  scopes : (int, unit) Hashtbl.t;  (** refuted family and projection keys *)
}

(** An empty set of refutations, for one search. *)
val make_dead : unit -> dead

(** Whether Φ has refuted a candidate's family key or one of its
    projection keys. *)
val scope_dead : dead -> family:int -> projs:(string * int) list -> bool

(** All candidates of one grammar class, cheapest shapes first, each
    with its construction key, family key and projection keys. Before
    building a candidate, a shape asks [dead] whether Φ has refuted it or
    one of its scopes; refuted candidates are yielded as [Bulk] items
    instead, in enumeration order. [dead] must only grow while the
    sequence is consumed.

    Shapes are thunks: a shape's emit pools (an eager, possibly large
    construction) are only built when enumeration actually reaches it.
    [stop] is the consumer's own stop condition (budget exhausted or
    [max_solutions] saturated); once it fires, remaining shapes are
    pruned without being built. Order-preserving by construction: the
    consumer stops consuming at exactly the point [stop] becomes true,
    so the pruned tail was unreachable anyway. *)
val candidates :
  ?stop:(unit -> bool) ->
  dead:dead ->
  Minijava.Ast.program -> F.t -> G.pools -> G.klass -> item Seq.t
