(** The two verification phases (paper §3.4, §4.1).

    {b Bounded model checking} (phase 1, the Sketch substitute): check the
    candidate over a small finite domain of program states. Fast, used
    inside the CEGIS loop; returns a counter-example state on failure.

    {b Full verification} (phase 2, the Dafny/Z3 substitute): discharge
    the inductive VC over a much larger domain — more states, larger
    datasets, adversarial values. A candidate that only holds on the
    bounded domain (e.g. one that conflates [v] with [min(4,v)]) passes
    phase 1 and is rejected here, triggering Casper's grammar-blocking
    loop. This is a testing-based prover: "verified" means the induction
    step held on every state in the large checked domain, not a
    mechanized proof (see DESIGN.md, Substitutions). *)

module F = Casper_analysis.Fragment
module Vc = Casper_vcgen.Vc
module Ir = Casper_ir.Lang
module Value = Casper_common.Value
open Minijava.Ast

type outcome =
  | Valid
  | Counterexample of Minijava.Interp.env  (** a parameter env that refutes *)
  | Invalid_summary of string  (** the candidate is not even evaluable *)

(** Check one candidate over a batch of parameter environments. *)
let check_batch (prog : program) (frag : F.t) (summary : Ir.summary)
    (batch : Minijava.Interp.env list) : outcome =
  let rec go = function
    | [] -> Valid
    | params :: rest -> (
        match Vc.entry_of_params prog frag params with
        | exception Minijava.Interp.Runtime_error _ -> go rest
        | entry -> (
            match Vc.check_state prog frag summary entry with
            | Vc.Holds -> go rest
            | Vc.State_skipped _ -> go rest
            | Vc.Fails _ -> Counterexample params
            | Vc.Ir_error m -> Invalid_summary m))
  in
  go batch

type phase = Phi | Bounded | Full

(* The one place that names each judgement's states: its domain, the
   seed its states are drawn from, and how many. *)
let states (phase : phase) (prog : program) (frag : F.t) :
    Minijava.Interp.env list =
  let domain, seed, count =
    match phase with
    | Phi -> (Statesgen.bounded_domain, 12, 3)
    | Bounded -> (Statesgen.bounded_domain, 11, 20)
    | Full -> (Statesgen.full_domain, 1301, 56)
  in
  Statesgen.gen_batch ~seed ~count (domain frag) prog frag

(* ------------------------------------------------------------------ *)
(* Prepared batches: [check_batch] re-derives the entry state and every
   sequential prefix from the raw parameter environment for each
   candidate. A prepared state does that candidate-independent work once
   (lazily — a state whose entry computation would fault only faults if
   a candidate reaches it, exactly as in [check_batch]) and is shared
   across the thousands of candidates of one synthesis run. *)

type prepared = {
  pr_params : Minijava.Interp.env;
  pr_state : Vc.prepared_state option Lazy.t;
      (** [None] when the entry statements fault on this state *)
}

let prepare_one (prog : program) (frag : F.t)
    (params : Minijava.Interp.env) : prepared =
  {
    pr_params = params;
    pr_state =
      lazy
        (match Vc.entry_of_params prog frag params with
        | exception Minijava.Interp.Runtime_error _ -> None
        | entry -> Some (Vc.prepare_state prog frag entry));
  }

let prepare_states (phase : phase) (prog : program) (frag : F.t) :
    prepared list =
  List.map (prepare_one prog frag) (states phase prog frag)

(** [check_batch] over prepared states: same walk, same early exit, same
    outcomes. *)
let check_prepared_batch (frag : F.t) (summary : Ir.summary)
    (batch : prepared list) : outcome =
  let rec go = function
    | [] -> Valid
    | p :: rest -> (
        match Lazy.force p.pr_state with
        | None -> go rest
        | Some ps -> (
            match fst (Vc.check_prepared frag summary ps) with
            | Vc.Holds | Vc.State_skipped _ -> go rest
            | Vc.Fails _ -> Counterexample p.pr_params
            | Vc.Ir_error m -> Invalid_summary m))
  in
  go batch

type one =
  | Passes
  | Refuted of { lr_ran : bool; output : string option }

(** Does the candidate hold on one prepared state (one conjunct of the
    CEGIS Φ check)? A refutation says whether any λr was applied
    before it was decided ({!Vc.check_prepared}) and names the output
    that disagreed, if one did. *)
let check_prepared_one (frag : F.t) (summary : Ir.summary) (p : prepared) :
    one =
  match Lazy.force p.pr_state with
  | None -> Passes
  | Some ps -> (
      match Vc.check_prepared frag summary ps with
      | (Vc.Holds | Vc.State_skipped _), _ -> Passes
      | Vc.Fails { var; _ }, lr_ran -> Refuted { lr_ran; output = Some var }
      | Vc.Ir_error _, lr_ran -> Refuted { lr_ran; output = None })

(* ------------------------------------------------------------------ *)
(* Algebraic properties of reducers (§5.1's ϵ, §6.3's reduceByKey vs
   groupByKey decision).                                               *)

let sample_values (rng : Casper_common.Rng.t) (ty : Ir.ty) ~n : Value.t list =
  let rec gen (t : Ir.ty) : Value.t =
    match t with
    | Ir.TInt | Ir.TDate -> Value.Int (Casper_common.Rng.int_range rng (-50) 50)
    | Ir.TFloat -> Value.Float (Casper_common.Rng.float_range rng (-10.0) 10.0)
    | Ir.TBool -> Value.Bool (Casper_common.Rng.bool rng)
    | Ir.TString ->
        Value.Str (Casper_common.Rng.word rng ~min_len:1 ~max_len:3)
    | Ir.TTuple ts -> Value.Tuple (List.map gen ts)
    | Ir.TPair (a, b) -> Value.Tuple [ gen a; gen b ]
    | Ir.TRecord _ | Ir.TBag _ -> Value.Tuple []
  in
  List.init n (fun _ -> gen ty)

(* [sample_values] draws [Tuple []] for a record or a bag: every sample
   of such a type is equal, so any λr would pass on them *)
let rec samplable (t : Ir.ty) : bool =
  match t with
  | Ir.TRecord _ | Ir.TBag _ -> false
  | Ir.TTuple ts -> List.for_all samplable ts
  | Ir.TPair (a, b) -> samplable a && samplable b
  | Ir.TInt | Ir.TDate | Ir.TFloat | Ir.TBool | Ir.TString -> true

(** Test commutativity and associativity of λr over its value type by
    randomized checking. λr is evaluated with [v1] and [v2] bound and
    nothing else, so one that names a free variable does not hold.
    Conservative: any evaluation error counts as "property does not
    hold", and so does a value type holding a record or a bag, which
    the sampler cannot draw. *)
let reducer_props (lr : Ir.lam_r) (vty : Ir.ty) :
    [ `Comm_assoc | `Not_comm_assoc ] =
  if not (samplable vty) then `Not_comm_assoc
  else
    let rng = Casper_common.Rng.create 4242 in
    let ok = ref true in
    (try
       let r = Casper_ir.Eval.apply_lam_r [] lr in
       for _ = 1 to 48 do
         match sample_values rng vty ~n:3 with
         | [ a; b; c ] ->
             let comm = Value.equal_approx (r a b) (r b a) in
             let assoc = Value.equal_approx (r (r a b) c) (r a (r b c)) in
             if not (comm && assoc) then ok := false
         | _ -> ()
       done
     with _ -> ok := false);
    if !ok then `Comm_assoc else `Not_comm_assoc
