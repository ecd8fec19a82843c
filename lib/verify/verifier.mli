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

(** Phase 1 over the small bounded domain. *)
val bounded_check :
  ?seed:int ->
  ?count:int ->
  Minijava.Ast.program ->
  F.t ->
  Ir.summary ->
  outcome

(** The seed phase 2 draws its states from, in {!full_verify} and in the
    search's prepared full batch ([Cegis]). {!Statesgen.gen_batch} draws
    states in order from one seed, so a longer batch extends a shorter
    one. *)
val full_seed : int

(** Phase 2 over the large adversarial domain ([seed] defaults to
    {!full_seed}). *)
val full_verify :
  ?seed:int ->
  ?count:int ->
  Minijava.Ast.program ->
  F.t ->
  Ir.summary ->
  outcome

(** A parameter environment with its candidate-independent verification
    work (entry state, sequential prefixes, truncated datasets) computed
    lazily, once, and shared across candidates. Checking a candidate
    against prepared states yields exactly the outcomes of the plain
    [check_batch]/[bounded_check]/[full_verify] on the same states. *)
type prepared

val prepare_one : Minijava.Ast.program -> F.t -> Minijava.Interp.env -> prepared
val prepare_batch :
  Minijava.Ast.program -> F.t -> Minijava.Interp.env list -> prepared list

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
    its value type — drives [reduceByKey] vs [groupByKey] (§6.3) and the
    cost model's ϵ. Conservative: evaluation errors count as "does not
    hold". *)
val reducer_props :
  ?trials:int ->
  Casper_ir.Eval.env ->
  Ir.lam_r ->
  Ir.ty ->
  [ `Comm_assoc | `Not_comm_assoc ]
