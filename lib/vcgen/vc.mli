(** Verification conditions for program summaries (paper §3.3, Figure 4).

    For a fragment that iterates a dataset, Casper synthesizes the loop
    invariant in the standard prefix form

      Inv(σ, i)  ≡  bounds(i) ∧ outputs(σ) = ⟦MR⟧(data[0..i])

    which turns the three Hoare clauses into executable checks:

    - initiation:   outputs at loop entry  = ⟦MR⟧ over the empty prefix
    - continuation: if outputs = ⟦MR⟧(data[0..k]) then after one more
      iteration outputs = ⟦MR⟧(data[0..k+1])
    - termination:  outputs at loop exit = ⟦MR⟧ over all data — the
      program summary itself.

    Because the loop body is deterministic, checking that the outputs
    after executing the loop over every prefix of the data equal the IR
    denotation over that prefix discharges all three clauses for the
    given program state. The bounded and full verifiers quantify over
    states; this module provides the per-state check. *)

module F = Casper_analysis.Fragment
module Value = Casper_common.Value
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval

exception Vc_error of string

(** A MiniJava program state. *)
type env = Minijava.Interp.env

(** Run the fragment's preceding statements to establish the entry state
    from a generated parameter environment. *)
val entry_of_params : Minijava.Ast.program -> F.t -> env -> env

(** Number of outer iteration units in the entry state. *)
val outer_count : Minijava.Ast.program -> F.t -> env -> int

(** The IR-side datasets of the entry state, truncated to the first [k]
    outer units. Records follow the iteration schema: list elements as
    themselves, counted arrays as (i, a[i], …), matrices as (i, j, v).
    Partially applied to an entry state, the result builds each
    counted-array and matrix record once and shares it with every
    prefix; each prefix raises what building it from scratch would
    raise. *)
val datasets_at :
  Minijava.Ast.program -> F.t -> env -> int -> (string * Value.t list) list

(** Execute the loop over the first [k] outer units only. *)
val run_prefix : Minijava.Ast.program -> F.t -> env -> int -> env

(** The shape of each output of the fragment, for {!Eval.extract_outputs}. *)
val shapes_of : F.t -> (string * Eval.out_shape) list

(** Canonicalize a Java [Map] value (bag of key-value tuples) for
    comparison. *)
val canon_output : F.out_kind -> Value.t -> Value.t

type check_result =
  | Holds
  | Fails of { prefix : int; var : string }
      (** the first prefix, and on it the first output, that disagree *)
  | Ir_error of string  (** the summary itself is not evaluable *)
  | State_skipped of string  (** the sequential code faulted on this state *)

(** The first of [outputs] whose sequential value in [seq_env]
    disagrees with the IR denotation's in [mr_out]. *)
val output_mismatch :
  (string * Minijava.Ast.ty * F.out_kind) list ->
  env -> Eval.env -> string option

(** The walk that checks a denotation of the outputs on one entry state:
    [check_denotation prog frag entry denote] compares the sequential
    outputs after each prefix [k] of the data, [k] = 0 to
    {!outer_count}, with [denote] applied to the datasets of that prefix
    ({!datasets_at}), and stops at the first disagreement. An
    [Eval.Eval_error] or [Value.Type_error] raised by [denote], and a
    [Vc_error], are [Ir_error]; a state whose {!outer_count} raises, or
    on whose prefix the sequential code raises
    [Minijava.Interp.Runtime_error], is [State_skipped]. Every other
    exception propagates. *)
val check_denotation :
  Minijava.Ast.program ->
  F.t ->
  env ->
  ((string * Value.t list) list -> Eval.env) ->
  check_result

(** Check all three VC clauses of the candidate summary on one entry
    state: compare sequential execution against the IR denotation on
    every prefix of the data (prefix 0 = initiation, successive prefixes
    = continuation, full data = termination): {!check_denotation} of
    the summary's IR denotation ({!Eval.stage_summary}). [lr_ran], when
    given, is set by every λr application, as in {!check_prepared}. *)
val check_state :
  ?lr_ran:bool ref ->
  Minijava.Ast.program -> F.t -> Ir.summary -> env -> check_result

(** One extracted output: a [Whole] binding of an array output as its
    initial array, that array's length, and every write, newest first;
    any other binding as its value. *)
type extracted =
  | Dense of Value.t
  | Sparse of { init : Value.t list; len : int; writes : (int * Value.t) list }

(** [Eval.extract_outputs], with array outputs left [Sparse].
    [init_len var l] is the length of [var]'s initial array [l]. Raises
    what [Eval.extract_outputs] raises, in the same order: bindings in
    order, and within an array binding its writes in bag order. *)
val extract_sparse :
  init_len:(string -> Value.t list -> int) ->
  Eval.bag ->
  Eval.env ->
  (string * Eval.out_shape) list -> Ir.summary -> (string * extracted) list

(** What one array output must equal on one prefix. *)
type expect =
  | Diff of { exp : Value.t array; diff : int list }
      (** the expected array, as long as the initial one, and the
          positions where the two differ under [Value.equal_approx] *)
  | Whole_value of Value.t  (** any other expected value *)

(** The expected value of array output [var] after [seq_env], against
    its initial value in [init]. Raises [Not_found] where
    {!output_mismatch} does: [var] unbound in [seq_env]. *)
val expect_of : env -> Eval.env -> string -> expect

(** {!output_mismatch} over {!extract_sparse}'s outputs, extracted with
    the shapes of [outputs] ({!shapes_of}): the same verdict, the same
    failing output and the same exception. [expect v] is
    [expect_of seq_env init v] for the [init] they were extracted
    against. *)
val sparse_mismatch :
  (string * Minijava.Ast.ty * F.out_kind) list ->
  env -> (string -> expect) -> (string * extracted) list -> string option

type prefix_cell =
  | PReady of {
      seq_env : env;  (** sequential env after the prefix *)
      datasets : (string * Value.t list) list;  (** the truncated datasets *)
      expects : (string * expect Lazy.t) list;
          (** per array output, what it must equal on this prefix *)
    }
  | PSeq_fault  (** the sequential code faulted on this prefix *)
  | PRaise of exn  (** any other exception, re-raised at the same point *)

type prepared_state = {
  p_entry : env;
  p_shapes : (string * Eval.out_shape) list;
  p_init_lens : (string, int) Hashtbl.t;
      (** length of each array output's initial value in [p_entry] *)
  p_outer : (int, exn) result Lazy.t;
  p_cells : prefix_cell Lazy.t array Lazy.t;
      (** one cell per prefix 0..n when [p_outer] is [Ok n] *)
  mutable p_loop_units : int;
      (** outer loop units run for [p_cells]: one per cell resumed from
          its predecessor, which runs at most one *)
}

type seq_step = { s_env : env; s_next : unit -> seq_step }

(** [run_prefix prog frag entry] over prefixes 0, 1, 2, …, incremental:
    the result runs prefix 0, and each step's [s_next] runs the next
    prefix by resuming the step's paused loop
    ({!Minijava.Interp.counted_resume}): [For] and counted [While] loops
    go on with a bound one larger, [ForEach] loops with the next element.
    A step equals [run_prefix] on its prefix in environment, step count
    and fault. A loop [run_prefix] does not truncate runs whole at prefix
    0, and every later prefix shares that run. *)
val seq_steps : Minijava.Ast.program -> F.t -> env -> unit -> seq_step

(** Prepare an entry state for {!check_prepared}: its prefixes' cells
    are computed lazily, each at most once, and shared by every
    candidate checked on the state. *)
val prepare_state : Minijava.Ast.program -> F.t -> env -> prepared_state

(** [check_state], against a prepared state. Identical outcomes: both
    walk prefixes 0..n in order and stop at the first failure, so a
    cached cell is only ever consulted at the same point the plain check
    would have computed it; array outputs are compared sparsely
    ({!sparse_mismatch}), with the same verdicts. The pipeline runs
    incrementally, each prefix folding in only the records it adds
    ({!Casper_ir.Memo.stage_prefixes}), with the same values and
    errors.

    The flag says whether any λr was applied before the result was
    decided. When it is [false], every summary that differs from this one
    only in its λrs gets the same result on this state: the prefixes up
    to the deciding one produce the same bags for all of them (see
    {!Casper_ir.Memo.stage_prefixes}). *)
val check_prepared :
  F.t -> Ir.summary -> prepared_state -> check_result * bool

(** Render the symbolic VC clauses for documentation / debugging output
    (the shape of Figure 4(b)). *)
val pp_clauses : Format.formatter -> F.t -> unit
