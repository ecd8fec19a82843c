(** Physical dataflow plans executed by the engine.

    A plan is a source dataset followed by a pipeline of stages. Stages
    carry OCaml closures over {!Casper_common.Value.t}: the code
    generator compiles verified IR summaries into these, and the
    baselines (MOLD, manual rewrites, the SparkSQL substitute) build
    them by hand. Key-value records are [Value.Tuple [key; value]]. *)

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
          (** when false the engine executes the safe groupByKey plan —
              no combiners, full shuffle (§6.3) *)
    }
  | Group_by_key of { label : string }
      (** (k,v)* → (k, [v…]); always a full shuffle *)
  | Map_values of { label : string; f : Value.t -> Value.t }
  | Global_reduce of {
      label : string;
      f : Value.t -> Value.t -> Value.t;
      comm_assoc : bool;
    }
  | Join_with of { label : string; right : t }
      (** inner equi-join of two keyed datasets:
          (k,v1) ⋈ (k,v2) → (k,(v1,v2)) *)

and t = { source : string; stages : stage list }

let data source = { source; stages = [] }
let ( |>> ) plan stage = { plan with stages = plan.stages @ [ stage ] }

let flat_map ?(label = "flatMap") f =
  Flat_map { label; f = (fun x sink -> List.iter sink (f x)) }

let filter ?(label = "filter") p = Filter { label; p }
let map ?(label = "map") f = Flat_map { label; f = (fun x sink -> sink (f x)) }

let map_to_pair ?(label = "mapToPair") f =
  Flat_map
    {
      label;
      f =
        (fun x sink ->
          let k, v = f x in
          sink (Value.Tuple [ k; v ]));
    }

let reduce_by_key ?(label = "reduceByKey") ?(comm_assoc = true) f =
  Reduce_by_key { label; f; comm_assoc }

let group_by_key ?(label = "groupByKey") () = Group_by_key { label }
let map_values ?(label = "mapValues") f = Map_values { label; f }

let global_reduce ?(label = "reduce") ?(comm_assoc = true) f =
  Global_reduce { label; f; comm_assoc }

let join_with ?(label = "join") right = Join_with { label; right }

let stage_label = function
  | Flat_map { label; _ }
  | Filter { label; _ }
  | Reduce_by_key { label; _ }
  | Group_by_key { label }
  | Map_values { label; _ }
  | Global_reduce { label; _ }
  | Join_with { label; _ } ->
      label

(** Source dataset names the plan reads — the main source first, then
    each join side depth-first — with duplicates removed. *)
let sources (p : t) : string list =
  let seen = Hashtbl.create 8 in
  let rev = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      rev := s :: !rev
    end
  in
  let rec go (p : t) =
    add p.source;
    List.iter
      (function Join_with { right; _ } -> go right | _ -> ())
      p.stages
  in
  go p;
  List.rev !rev
