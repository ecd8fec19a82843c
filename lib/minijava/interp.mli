(** Reference interpreter for MiniJava — the ground truth verification
    compares candidate summaries against. Java [Map]s are modeled as
    bags of (key, value) tuples with unique keys; mutation is by
    functional environment update (cheap at verification scale). *)

module Value = Casper_common.Value

exception Runtime_error of string

type env = (string * Value.t) list

(* Break/Continue carry the environment at the point they fired, so that
   assignments executed earlier in the same iteration survive. *)
exception Break_exc of env
exception Continue_exc of env
exception Return_exc of Value.t option

(** The first binding of a name in an environment.
    @raise Runtime_error when the name is unbound. *)
val lookup : env -> string -> Value.t

(** [bind env v x] binds [v] to [x] in front of [env] without [v]'s
    first binding. *)
val bind : env -> string -> Value.t -> env

(** Run a named method on argument values.
    @raise Runtime_error on dynamic faults (out-of-bounds, division by
    zero, arity mismatches, exceeding the step budget). *)
val run_method :
  Ast.program -> string -> Value.t list -> Value.t

(** Execute a statement list in an environment; returns the final
    environment (fragment execution for verification). *)
val run_stmts :
  Ast.program -> env -> Ast.stmt list -> env

(** Evaluate one expression in an environment. *)
val eval_expr : Ast.program -> env -> Ast.expr -> Value.t

(** {1 Resumable loops}

    Verification runs a fragment's loop over every prefix of its outer
    units, and the run over prefix k + 1 is the run over prefix k plus
    one unit. A [paused] loop is a run over a prefix, stopped where the
    run over a longer prefix goes on: resuming it gives what running the
    longer prefix from the start gives — environment, step count, and
    the fault, if one occurs — while running only the new units. *)

type paused = {
  env : env;  (** the environment after the prefix *)
  steps : int;  (** the step count where a longer prefix goes on *)
  left : bool;  (** the loop left through [break]: no later unit runs *)
}

(** [counted_prefix prog env ~init ~idx ~upd ~body k] is
    [run_stmts prog env [For (init, Some (idx < k), upd, body)]], paused
    before the test [idx < k] that ended it. A counted
    [While (idx < k, body)] is the case [init = upd = []]. *)
val counted_prefix :
  Ast.program ->
  env ->
  init:Ast.stmt list ->
  idx:string ->
  upd:Ast.stmt list ->
  body:Ast.stmt list ->
  int ->
  paused

(** [counted_resume prog p ~idx ~upd ~body k'], with [p] the same loop
    paused at a bound [k <= k'], is [counted_prefix] at bound [k']. *)
val counted_resume :
  Ast.program ->
  paused ->
  idx:string ->
  upd:Ast.stmt list ->
  body:Ast.stmt list ->
  int ->
  paused

(** [items_prefix prog env ~coll ~var ~body] is
    [run_stmts prog env [ForEach (t, var, coll, body)]], paused after
    its last item. *)
val items_prefix :
  Ast.program ->
  env ->
  coll:Ast.expr ->
  var:string ->
  body:Ast.stmt list ->
  paused

(** [items_resume prog p ~var ~body xs], with [p] the same loop paused
    over items [l], is [items_prefix] over [l @ xs]. *)
val items_resume :
  Ast.program -> paused -> var:string -> body:Ast.stmt list ->
  Casper_common.Value.t list -> paused
