type 'a t = 'a list

let equal_values (a : Value.t t) (b : Value.t t) =
  List.length a = List.length b
  && List.for_all2 Value.equal_approx
       (List.sort Value.compare a)
       (List.sort Value.compare b)

let group_by_key (pairs : (Value.t * Value.t) list) :
    (Value.t * Value.t list) list =
  let tbl : Value.t list ref Value.Tbl.t = Value.Tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Value.Tbl.find_opt tbl k with
      | Some cell -> cell := v :: !cell
      | None ->
          let cell = ref [ v ] in
          Value.Tbl.add tbl k cell;
          order := (k, cell) :: !order)
    pairs;
  List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !order
