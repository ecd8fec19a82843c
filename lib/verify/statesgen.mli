(** Program-state generation for the two verification phases.

    The bounded model checker (the Sketch substitute, §3.4) explores a
    small finite domain — tiny datasets, ints from a narrow pool — so
    candidate checking is fast, and so that semantically-wrong candidates
    can *pass* here and be caught by the full verifier, which is exactly
    the phenomenon Casper's two-phase verification exists to handle
    (§4.1, "assume we bound the integer inputs to have a maximum value
    of 4").

    The full verifier (the Dafny substitute) uses a much larger domain:
    longer datasets, wide value ranges, adversarial values (negatives,
    duplicates, zero, extreme magnitudes) and many trials.

    Both domains mix in the fragment's own constants so that guards like
    [discount >= 0.05] or [word == key1] are exercised on both sides. *)

module F = Casper_analysis.Fragment

type domain = {
  max_outer : int;  (** outer dataset size drawn from 0..max_outer *)
  max_inner : int;  (** matrix columns / inner sizes, 1..max_inner *)
  ints : int list;
  floats : float list;
  strings : string list;
}

(** The bounded model checker's small domain, with the fragment's
    constants mixed in. *)
val bounded_domain : F.t -> domain

(** The full verifier's domain: the bounded one widened with longer
    datasets and adversarial values. *)
val full_domain : F.t -> domain

(** A deterministic batch of parameter environments covering sizes 0,1
    and random sizes up to the domain maximum. *)
val gen_batch :
  seed:int ->
  count:int ->
  domain -> Minijava.Ast.program -> F.t -> Minijava.Interp.env list
