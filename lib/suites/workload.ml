(** Synthetic workload generators.

    The paper's performance experiments run on synthetic datasets of
    25/50/75 GB with controllable skew (§7.2, §7.4); these helpers
    produce the in-memory samples that stand in for them, with the same
    knobs: record count, match probability, key skew. All generation is
    deterministic given the RNG seed. Each generator does constant work
    per record: what every record draws from, such as the Zipf sampler
    and the word dictionary of {!words}, is built once per call. *)

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

(** Words drawn from a vocabulary of [vocab] distinct words with
    Zipf-like skew [s] (s = 0 → uniform). *)
let words rng ~n ~vocab ~skew =
  let dict = Array.init vocab (fun i -> Fmt.str "w%04d" i) in
  let rank = Rng.zipf ~n:vocab ~s:skew in
  Value.List (List.init n (fun _ -> Value.Str dict.(rank rng)))

(** Word stream where a fraction [p1] matches [key1] and [p2] matches
    [key2] (the StringMatch skew datasets of §7.4). *)
let match_words rng ~n ~key1 ~key2 ~p1 ~p2 =
  Value.List
    (List.init n (fun _ ->
         let x = Rng.float rng in
         if x < p1 then Value.Str key1
         else if x < p1 +. p2 then Value.Str key2
         else Value.Str (Rng.word rng ~min_len:4 ~max_len:8)))

let structs rng ~n (mk : Rng.t -> Value.t) =
  Value.List (List.init n (fun _ -> mk rng))

(** RGB pixel stream for the image benchmarks: tuples of channel values
    flattened into structs. *)
let pixels rng ~n =
  structs rng ~n (fun rng ->
      Value.Struct
        ( "Pixel",
          [
            ("r", Value.Int (Rng.int rng 256));
            ("g", Value.Int (Rng.int rng 256));
            ("b", Value.Int (Rng.int rng 256));
          ] ))
