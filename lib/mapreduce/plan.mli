(** Physical dataflow plans executed by the engine.

    A plan is a named source dataset followed by a pipeline of stages
    carrying OCaml closures over {!Casper_common.Value.t}. The code
    generator compiles verified IR summaries into these; baselines
    (MOLD, manual rewrites, the SparkSQL substitute) build them
    directly. Key-value records are [Value.Tuple [key; value]]. *)

module Value = Casper_common.Value

type kv = Value.t * Value.t

type stage =
  | Flat_map of { label : string; f : Value.t -> (Value.t -> unit) -> unit }
      (** flatMap / flatMapToPair: [f r sink] hands each of the zero or
          more records [r] maps to to [sink], in order *)
  | Filter of { label : string; p : Value.t -> bool }
  | Reduce_by_key of {
      label : string;
      f : Value.t -> Value.t -> Value.t;
      comm_assoc : bool;
          (** [false] runs the safe groupByKey plan: no combiners, full
              shuffle (§6.3) *)
    }
  | Group_by_key of { label : string }  (** (k,v)* → (k, \[v…\]) *)
  | Map_values of { label : string; f : Value.t -> Value.t }
  | Global_reduce of {
      label : string;
      f : Value.t -> Value.t -> Value.t;
      comm_assoc : bool;
    }
  | Join_with of { label : string; right : t }
      (** inner equi-join: (k,v1) ⋈ (k,v2) → (k,(v1,v2)) *)

and t = { source : string; stages : stage list }

(** [data "name"] starts a plan from a named dataset. *)
val data : string -> t

(** Append a stage: [plan |>> map f |>> reduce_by_key g]. *)
val ( |>> ) : t -> stage -> t

val flat_map : ?label:string -> (Value.t -> Value.t list) -> stage
val filter : ?label:string -> (Value.t -> bool) -> stage
val map : ?label:string -> (Value.t -> Value.t) -> stage
val map_to_pair : ?label:string -> (Value.t -> Value.t * Value.t) -> stage

val reduce_by_key :
  ?label:string -> ?comm_assoc:bool -> (Value.t -> Value.t -> Value.t) -> stage

val group_by_key : ?label:string -> unit -> stage
val map_values : ?label:string -> (Value.t -> Value.t) -> stage

val global_reduce :
  ?label:string -> ?comm_assoc:bool -> (Value.t -> Value.t -> Value.t) -> stage

val join_with : ?label:string -> t -> stage
val stage_label : stage -> string

(** Source dataset names the plan reads — the main source first, then
    each join side depth-first — with duplicates removed. *)
val sources : t -> string list
