module Value = Casper_common.Value
module Rng = Casper_common.Rng

let ints rng ~n ~lo ~hi =
  Value.List (List.init n (fun _ -> Value.Int (Rng.int_range rng lo hi)))

let floats rng ~n ~lo ~hi =
  Value.List (List.init n (fun _ -> Value.Float (Rng.float_range rng lo hi)))

let matrix rng ~rows ~cols ~lo ~hi =
  Value.List
    (List.init rows (fun _ ->
         Value.List (List.init cols (fun _ -> Value.Int (Rng.int_range rng lo hi)))))

let float_matrix rng ~rows ~cols ~lo ~hi =
  Value.List
    (List.init rows (fun _ ->
         Value.List
           (List.init cols (fun _ -> Value.Float (Rng.float_range rng lo hi)))))

let words rng ~n ~vocab ~skew =
  let dict = Array.init vocab (fun i -> Fmt.str "w%04d" i) in
  let rank = Rng.zipf ~n:vocab ~s:skew in
  Value.List (List.init n (fun _ -> Value.Str dict.(rank rng)))

let match_words rng ~n ~key1 ~key2 ~p1 ~p2 =
  Value.List
    (List.init n (fun _ ->
         let x = Rng.float rng in
         if x < p1 then Value.Str key1
         else if x < p1 +. p2 then Value.Str key2
         else Value.Str (Rng.word rng ~min_len:4 ~max_len:8)))

let structs rng ~n (mk : Rng.t -> Value.t) =
  Value.List (List.init n (fun _ -> mk rng))

let pixels rng ~n =
  structs rng ~n (fun rng ->
      Value.Struct
        ( "Pixel",
          [
            ("r", Value.Int (Rng.int rng 256));
            ("g", Value.Int (Rng.int rng 256));
            ("b", Value.Int (Rng.int rng 256));
          ] ))
