(** Evaluator for the IR: the denotational semantics of §2.1.

    [map] concurrently applies λm to every record and unions the emitted
    multisets; [reduce] groups pairs by key and folds λr over each group
    (or folds globally when the bag holds plain values); [join] matches
    pairs on keys. Verification compares these denotations against the
    MiniJava interpreter.

    Two evaluators share one semantics: {!eval_expr} walks an
    expression once, and {!stage} compiles it once, against its
    free-variable environment, into a closure that is then applied to
    every record (DESIGN.md §15). Staged code holds no mutable state:
    a staged λ may run on any number of records, from any domain. *)

module Value = Casper_common.Value

exception Eval_error of string

type env = (string * Value.t) list

(** A pipeline stage's output: key-value pairs or plain values. Input
    datasets are [Records]. *)
type bag =
  | Records of Value.t list
  | Pairs of (Value.t * Value.t) list
  | Vals of Value.t list

(** What λm emits for one record: key-value pairs or plain values. *)
type emitted = [ `KV of (Value.t * Value.t) list | `V of Value.t list ]

(** One-shot evaluation of [e] in [env]. Operands of a binary operator
    are evaluated right to left ([b] before [a]), call arguments and
    tuple components left to right; staged code keeps this order so the
    same error surfaces when several operands would fail. *)
val eval_expr : env -> Lang.expr -> Value.t

(** Bind λm parameters to the components of a record. *)
val bind_params : env -> string list -> Value.t -> env

(** A staged expression: it reads λ parameters from the array's slots. *)
type code = Value.t array -> Value.t

(** [stage env params e] compiles [e] once: parameter [i] of [params]
    reads slot [i] of the closure's array, and every other variable is
    looked up in [env] now. The closure raises what [eval_expr] raises
    on the same bindings, in the same order; staging itself never
    raises. *)
val stage : env -> string list -> Lang.expr -> code

(** [param_slots ~lead params] binds a record to slots the way
    [bind_params] binds it to names: slot [lead + i] holds the i-th
    component (the whole record for a single parameter). The [lead]
    leading slots are left for the caller to fill. *)
val param_slots : ?lead:int -> string list -> Value.t -> Value.t array

(** λm staged against [env], in the IR's semantics: what one record
    emits, as key-value pairs (value evaluated before key) or plain
    values, each in emit order ([`KV []] when nothing fires). A record
    that fires both kinds raises once every emit has run. Partially
    apply it once per node: staging happens then. *)
val apply_lam_m : env -> Lang.lam_m -> Value.t -> emitted

(** λm staged against [env], as the engine runs it: [push_lam_m env lm
    r sink] hands each emit of record [r] to [sink] as it fires, in emit
    order, [Tuple [k; v]] for a key-value emit (value evaluated before
    key). So an error of a later emit comes after [sink] has taken the
    earlier ones. Only a λm whose emits mix key-value and plain
    payloads buffers a record's emits: a record that fires both kinds
    raises once every emit has run, before [sink] sees any. *)
val push_lam_m : env -> Lang.lam_m -> Value.t -> (Value.t -> unit) -> unit

(** λr staged against [env]; partially apply it once per node. *)
val apply_lam_r : env -> Lang.lam_r -> Value.t -> Value.t -> Value.t

(** The error of a map whose records emitted both pairs and plain
    values; [Memo]'s prefix fold raises it too. *)
val mixed_shapes : unit -> 'a

(** The records of dataset [d]; raises [Eval_error] when [datasets] has
    none. *)
val dataset : (string * Value.t list) list -> string -> Value.t list

(** A pipeline whose λs are staged: it evaluates the pipeline on any
    datasets. Verification stages a summary once per entry state and
    runs it on every prefix of the data. *)
type staged_node = (string * Value.t list) list -> bag

(** Apply a staged λm to every record of [src]'s output. *)
val map_node : staged_node -> (Value.t -> emitted) -> staged_node

(** Stage pipeline [n] against [env]. Every λr application sets
    [lr_ran], when given. *)
val stage_node : ?lr_ran:bool ref -> env -> Lang.node -> staged_node

(** The denotation of a pipeline node. *)
val eval_node : env -> (string * Value.t list) list -> Lang.node -> bag

(** Shape of an output variable, used to materialize pipeline results. *)
type out_shape =
  | Scalar
  | Arr  (** fixed-size array: rebuilt from the initial value by Int key *)
  | MapAssoc  (** Java Map: the result *is* the association *)

(** The initial value of output [var] in [init]. *)
val init_value : env -> string -> Value.t

(** The shape of output [var]; [Scalar] when [shapes] does not name it. *)
val shape_of : (string * out_shape) list -> string -> out_shape

(** The position key [k] writes to in an array output of length [len]. *)
val array_pos : int -> Value.t -> int

(** The value of one bound output variable from the pipeline [result],
    against initial values [init] — the default for keys the pipeline
    never emitted (this is exactly the initiation VC's base case: empty
    data ⇒ outputs keep their initial values). *)
val extract_binding :
  bag -> env -> (string * out_shape) list -> string * Lang.extract -> Value.t

(** Compute the value of each bound output variable ({!extract_binding}),
    in binding order. *)
val extract_outputs :
  bag -> env -> (string * out_shape) list -> Lang.summary -> env

(** [apply_summary], staged once against [env]: the result takes the
    datasets and the initial values. *)
val stage_summary :
  ?lr_ran:bool ref ->
  env ->
  (string * out_shape) list ->
  Lang.summary -> (string * Value.t list) list -> env -> env

(** The outputs of summary [s] on [datasets], from the initial values
    [init]: the one-shot form of {!stage_summary}. *)
val apply_summary :
  env ->
  (string * Value.t list) list ->
  env -> (string * out_shape) list -> Lang.summary -> env
