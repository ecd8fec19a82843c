(** The two verification phases (paper §3.4, §4.1).

    Phase 1 — bounded model checking (the Sketch substitute): check a
    candidate over a small finite domain of program states; fast, used
    inside the CEGIS loop; returns a counter-example state on failure.

    Phase 2 — full verification (the Dafny/Z3 substitute): discharge the
    inductive VC over a much larger adversarial state domain. A
    candidate that only holds on the bounded domain (e.g. one that
    conflates [v] with [min(4, v)]) passes phase 1 and is rejected here,
    which drives Casper's grammar-blocking loop and Table 2's
    theorem-prover-failure counts. This is a testing-based prover:
    "verified" means the induction step held on every state in the
    checked domain, not a mechanized proof (DESIGN.md, Substitutions). *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value

type outcome =
  | Valid
  | Counterexample of Minijava.Interp.env
      (** a parameter environment refuting the candidate *)
  | Invalid_summary of string  (** the candidate is not even evaluable *)

(** Check a candidate over an explicit batch of parameter environments
    (states whose sequential execution faults are skipped). *)
val check_batch :
  Minijava.Ast.program ->
  F.t ->
  Ir.summary ->
  Minijava.Interp.env list ->
  outcome

(** The search's three sets of states (§4.1), each named here once:
    - [Phi], Φ's first counter-examples: 3 states of the bounded
      domain, seed 12;
    - [Bounded], phase 1: 20 states of the bounded domain, seed 11;
    - [Full], phase 2: 56 states of the full domain, seed 1301. *)
type phase = Phi | Bounded | Full

(** The states of a phase ({!Statesgen.gen_batch} over its domain). *)
val states : phase -> Minijava.Ast.program -> F.t -> Minijava.Interp.env list

(** A parameter environment with its candidate-independent verification
    work (entry state, sequential prefixes, truncated datasets) computed
    lazily, once, and shared across candidates. Checking a candidate
    against prepared states yields exactly the outcomes of the plain
    {!check_batch} on the same states. *)
type prepared

val prepare_one : Minijava.Ast.program -> F.t -> Minijava.Interp.env -> prepared

(** A phase's {!states}, prepared. *)
val prepare_states : phase -> Minijava.Ast.program -> F.t -> prepared list

(** [check_batch] over prepared states. *)
val check_prepared_batch : F.t -> Ir.summary -> prepared list -> outcome

(** One state's verdict. A refutation records whether any λr was
    applied before it was decided, and which output disagreed ([None]
    when the summary was not evaluable). When no λr ran, every summary
    that differs only in its λrs is refuted on this state too. *)
type one =
  | Passes
  | Refuted of { lr_ran : bool; output : string option }

(** One state's conjunct of the CEGIS Φ check. *)
val check_prepared_one : F.t -> Ir.summary -> prepared -> one

(** Random values of an IR type, for property checks. *)
val sample_values :
  Casper_common.Rng.t -> Ir.ty -> n:int -> Value.t list

(** Randomized commutativity/associativity analysis of a reducer over
    its value type — licenses [reduceByKey] over [groupByKey] (§6.3) and
    sets the cost model's ϵ. λr sees only its two parameters.
    Conservative: evaluation errors count as "does not hold", and so
    does a value type holding a record or a bag, which
    {!sample_values} cannot draw. Its one caller is
    [Casper_cost.Cost]. *)
val reducer_props : Ir.lam_r -> Ir.ty -> [ `Comm_assoc | `Not_comm_assoc ]
