(** Multisets (bags) of runtime values.

    The MapReduce operators of the paper (§2.1) are defined over multisets;
    bag equality (order-insensitive) is what summary verification compares
    when an output is itself a dataset. Represented as a plain list — the
    engine cares about element order only for determinism of iteration, and
    all equality checks sort first. *)

type 'a t = 'a list

let of_list l = l
let to_list l = l
let empty = []
let is_empty = function [] -> true | _ -> false
let add x l = x :: l
let union = List.rev_append
let map = List.map
let concat_map f l = List.concat_map f l
let filter = List.filter
let fold = List.fold_left
let iter = List.iter

(** Bag equality under a total order. *)
let equal ~compare a b =
  List.length a = List.length b
  && List.equal
       (fun x y -> compare x y = 0)
       (List.sort compare a) (List.sort compare b)

(** Bag equality of value multisets with float tolerance: sort both sides
    with the exact order, then compare pairwise approximately. Sorting by
    the exact order can pair up slightly-different floats inconsistently
    only when two elements are within tolerance of each other, in which
    case either pairing is accepted. *)
let equal_values (a : Value.t t) (b : Value.t t) =
  List.length a = List.length b
  && List.for_all2 Value.equal_approx
       (List.sort Value.compare a)
       (List.sort Value.compare b)

(** Group a bag of key-value pairs by key; the per-key bags preserve
    first-seen key order for deterministic iteration. Accumulates into
    mutable cells so each pair costs one hash lookup (no
    [Hashtbl.replace] re-probe per record). *)
let group_by_key (pairs : (Value.t * Value.t) list) :
    (Value.t * Value.t list) list =
  let tbl : (string, Value.t * Value.t list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      let key = Value.to_string k in
      match Hashtbl.find_opt tbl key with
      | Some (_, cell) -> cell := v :: !cell
      | None ->
          Hashtbl.add tbl key (k, ref [ v ]);
          order := key :: !order)
    pairs;
  List.rev_map
    (fun key ->
      let k, cell = Hashtbl.find tbl key in
      (k, List.rev !cell))
    !order
