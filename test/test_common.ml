(** Unit and property tests for the shared substrate: values, multisets,
    the deterministic RNG, library-method models, and table rendering. *)

module Value = Casper_common.Value
module Multiset = Casper_common.Multiset
module Rng = Casper_common.Rng
module Library = Casper_common.Library
module T = Casper_common.Tablefmt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------------- Value ---------------- *)

let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun i -> Value.Int i) small_signed_int;
            map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
            map (fun b -> Value.Bool b) bool;
            map (fun s -> Value.Str s) (string_size (int_bound 6));
          ]
      else
        frequency
          [
            (3, self 0);
            ( 1,
              map (fun l -> Value.Tuple l)
                (list_size (int_bound 3) (self (n / 2))) );
            ( 1,
              map (fun l -> Value.List l)
                (list_size (int_bound 3) (self (n / 2))) );
          ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* the byte-size model as a fold, kept apart from {!Value.size_of}'s
   direct recursion *)
let rec ref_size_of : Value.t -> int = function
  | Value.Int _ -> 12
  | Value.Float _ -> 16
  | Value.Bool _ -> 10
  | Value.Str s -> 24 + String.length s
  | Value.Tuple xs | Value.List xs ->
      List.fold_left (fun a x -> a + ref_size_of x) 8 xs
  | Value.Struct (_, fs) ->
      List.fold_left (fun a (_, v) -> a + ref_size_of v) 8 fs

(* tuples, lists and structs nested up to three deep over
   [value_gen]'s values *)
let nested_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then value_gen
      else
        let sub = list_size (int_bound 3) (self (depth - 1)) in
        frequency
          [
            (1, value_gen);
            (1, map (fun l -> Value.Tuple l) sub);
            (1, map (fun l -> Value.List l) sub);
            ( 1,
              map2
                (fun name l ->
                  Value.Struct
                    (name, List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) l))
                (string_size (int_bound 3))
                sub );
          ])
    3

let prop_size_of_reference =
  QCheck.Test.make ~name:"Value.size_of = the reference fold" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map Value.to_string l))
       QCheck.Gen.(list_size (int_bound 4) nested_gen))
    (fun vs ->
      List.for_all (fun v -> Value.size_of v = ref_size_of v) vs
      && Value.size_of_list vs
         = List.fold_left (fun a v -> a + ref_size_of v) 0 vs)

let prop_compare_refl =
  QCheck.Test.make ~name:"Value.compare is reflexive" ~count:200 value_arb
    (fun v -> Value.compare v v = 0)

let prop_compare_antisym =
  QCheck.Test.make ~name:"Value.compare is antisymmetric" ~count:200
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let prop_equal_approx_refl =
  QCheck.Test.make ~name:"equal_approx is reflexive (no NaN)" ~count:200
    value_arb (fun v -> Value.equal_approx v v)

(* the relative tolerance must not reach ±∞: an infinite side makes the
   scale infinite, and every finite value would pass *)
let prop_equal_approx_finite_not_inf =
  QCheck.Test.make ~name:"equal_approx separates finite floats from infinities"
    ~count:500 QCheck.float (fun x ->
      QCheck.assume (Float.is_finite x);
      List.for_all
        (fun inf ->
          (not (Value.equal_approx (Value.Float x) (Value.Float inf)))
          && not (Value.equal_approx (Value.Float inf) (Value.Float x)))
        [ infinity; neg_infinity ])

let prop_size_positive =
  QCheck.Test.make ~name:"size_of is positive" ~count:200 value_arb (fun v ->
      Value.size_of v > 0)

(* to_string has a formatter-free fast path for scalars (the engine's
   shuffle keys); it must render exactly the same bytes as [pp] *)
let prop_to_string_matches_pp =
  QCheck.Test.make ~name:"to_string equals the pp rendering" ~count:300
    value_arb (fun v -> String.equal (Value.to_string v) (Fmt.str "%a" Value.pp v))

(* keys where [Value.equal] and structural identity part ways: both
   zeros, NaNs, structs of one name, tuples nested past the depth
   [Hashtbl.hash] reads *)
let key_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            map (fun i -> Value.Int i) (int_range (-3) 3);
            map (fun f -> Value.Float f)
              (oneofl [ 0.0; -0.0; nan; -.nan; 1.0; 1234567.0; 1234568.0 ]);
            map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b" ]);
          ]
      in
      if n <= 0 then scalar
      else
        let sub = list_size (int_bound 4) (self (n / 2)) in
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Value.Tuple l) sub);
            (1, map (fun l -> Value.List l) sub);
            ( 1,
              map
                (fun l -> Value.Struct ("S", List.mapi (fun i v -> (string_of_int i, v)) l))
                sub );
          ])

(* a value [Value.equal] to [v] but built differently: the other zero,
   another NaN bit pattern, renamed struct fields *)
let rec twin (v : Value.t) : Value.t =
  match v with
  | Value.Float f when f = 0.0 -> Value.Float (-.f)
  | Value.Float f when Float.is_nan f ->
      Value.Float (Int64.float_of_bits 0x7ff0_0000_0000_0abcL)
  | Value.Tuple xs -> Value.Tuple (List.map twin xs)
  | Value.List xs -> Value.List (List.map twin xs)
  | Value.Struct (n, fs) ->
      Value.Struct (n, List.map (fun (f, x) -> ("f" ^ f, twin x)) fs)
  | v -> v

let prop_hash_agrees_with_equal =
  QCheck.Test.make ~name:"Value.equal a b => Value.hash a = Value.hash b"
    ~count:500
    (QCheck.make ~print:Value.to_string key_gen)
    (fun a ->
      let b = twin a in
      let deep = Value.Tuple [ Value.Tuple [ Value.Tuple [ a ] ] ] in
      Value.equal a b
      && Value.hash a = Value.hash b
      && Value.hash deep = Value.hash (twin deep))

(* the hash reads every component: tuples differing only in the last of
   twelve components, or twelve levels down, land in different buckets
   (a depth- or count-limited hash would collide on every such pair) *)
let test_hash_reads_every_component () =
  let flat last = Value.Tuple (List.init 11 (fun _ -> Value.Int 0) @ [ last ]) in
  let rec nested d last = if d = 0 then last else Value.Tuple [ nested (d - 1) last ] in
  let distinct mk =
    let hs = List.init 8 (fun i -> Value.hash (mk (Value.Int i))) in
    List.length (List.sort_uniq Int.compare hs) = 8
  in
  check "flat tuple" true (distinct flat);
  check "nested tuple" true (distinct (nested 12))

let test_sizes () =
  check_int "bool size (paper: 10)" 10 (Value.size_of (Value.Bool true));
  check_int "int size" 12 (Value.size_of (Value.Int 5));
  check_int "pair of bools (paper: 28)" 28
    (Value.size_of (Value.Tuple [ Value.Bool true; Value.Bool false ]))

let test_equal_approx_float () =
  check "close floats equal" true
    (Value.equal_approx (Value.Float 1.0) (Value.Float (1.0 +. 1e-12)));
  check "distant floats differ" false
    (Value.equal_approx (Value.Float 1.0) (Value.Float 1.1));
  check "relative difference of 1e-7 equal" true
    (Value.equal_approx (Value.Float 1e9) (Value.Float (1e9 *. (1.0 +. 1e-7))));
  check "infinities equal" true
    (Value.equal_approx (Value.Float infinity) (Value.Float infinity));
  check "negative infinities equal" true
    (Value.equal_approx (Value.Float neg_infinity) (Value.Float neg_infinity));
  check "opposite infinities differ" false
    (Value.equal_approx (Value.Float infinity) (Value.Float neg_infinity));
  check "finite is not infinite" false
    (Value.equal_approx (Value.Float 1.0) (Value.Float infinity));
  check "nan equals nan (by convention)" true
    (Value.equal_approx (Value.Float nan) (Value.Float nan));
  check "int is not float" false
    (Value.equal_approx (Value.Int 3) (Value.Float 3.0))

let test_accessors () =
  check_int "as_int" 7 (Value.as_int (Value.Int 7));
  Alcotest.(check (float 0.0)) "as_float promotes ints" 7.0
    (Value.as_float (Value.Int 7));
  check "field lookup" true
    (Value.equal
       (Value.field "x" (Value.Struct ("P", [ ("x", Value.Int 1) ])))
       (Value.Int 1));
  Alcotest.check_raises "missing field raises"
    (Value.Type_error "no field y in P{x=1}") (fun () ->
      ignore (Value.field "y" (Value.Struct ("P", [ ("x", Value.Int 1) ]))))

(* ---------------- Multiset ---------------- *)

let prop_bag_equal_shuffle =
  QCheck.Test.make ~name:"bag equality is order-insensitive" ~count:100
    QCheck.(list small_int)
    (fun l ->
      let vs = List.map (fun i -> Value.Int i) l in
      let rng = Rng.create 5 in
      Multiset.equal_values vs (Rng.shuffle rng vs))

let test_group_by_key () =
  let pairs =
    [
      (Value.Str "a", Value.Int 1);
      (Value.Str "b", Value.Int 2);
      (Value.Str "a", Value.Int 3);
    ]
  in
  let groups = Multiset.group_by_key pairs in
  check_int "two groups" 2 (List.length groups);
  let a_vals =
    List.assoc (Value.Str "a")
      (List.map (fun (k, v) -> (k, v)) groups)
  in
  check_int "group a has 2 values" 2 (List.length a_vals)

let prop_group_preserves_count =
  QCheck.Test.make ~name:"group_by_key preserves value count" ~count:100
    QCheck.(list (pair (int_bound 5) small_int))
    (fun l ->
      let pairs = List.map (fun (k, v) -> (Value.Int k, Value.Int v)) l in
      let groups = Multiset.group_by_key pairs in
      List.length l
      = List.fold_left (fun a (_, vs) -> a + List.length vs) 0 groups)

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  check "same seed, same stream" true
    (List.init 20 (fun _ -> Rng.int a 1000)
    = List.init 20 (fun _ -> Rng.int b 1000))

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_zipf_bounds =
  QCheck.Test.make ~name:"Rng.zipf stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.zipf ~n ~s:1.0 rng in
      v >= 0 && v < n)

(* [Rng.zipf]'s reference: the linear scan of the running weight sums
   that its table search replaces *)
let zipf_scan ~n ~s =
  let weights =
    Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  fun rng ->
    let x = Rng.float rng *. total in
    let rec go i acc =
      if i >= n - 1 then i
      else
        let acc = acc +. weights.(i) in
        if x < acc then i else go (i + 1) acc
    in
    go 0 0.0

(* a generator whose next [Rng.float] is [k /. 2^53]: splitmix64's
   output mix is a bijection, so undo it *)
let rng_drawing k =
  let open Int64 in
  let unshift y by =
    let x = ref y in
    for _ = 1 to 64 / by + 1 do
      x := logxor y (shift_right_logical !x by)
    done;
    !x
  in
  let inverse c =
    let x = ref c in
    for _ = 1 to 5 do
      x := mul !x (sub 2L (mul c !x))
    done;
    !x
  in
  let z = shift_left (of_int k) 11 in
  let z = mul (unshift z 31) (inverse 0x94D049BB133111EBL) in
  let z = mul (unshift z 27) (inverse 0xBF58476D1CE4E5B9L) in
  { Rng.state = sub (unshift z 30) Rng.gamma }

let test_zipf_matches_scan () =
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          let rank = Rng.zipf ~n ~s and scan = zipf_scan ~n ~s in
          List.iter
            (fun seed ->
              let a = Rng.create seed and b = Rng.create seed in
              for k = 1 to 10_000 do
                let got = rank a and want = scan b in
                if got <> want then
                  Alcotest.failf "n=%d s=%g seed %d draw %d: %d, scan %d" n s
                    seed k got want
              done)
            [ 1; 2; 3 ])
        [ 0.0; 0.5; 1.0; 1.1; 2.0 ])
    [ 1; 2; 3; 200; 500; 5000 ];
  (* a draw landing exactly on a running sum goes to the next rank:
     with s = 0 the sums are 1, 2, ..., so x = u * n ties at u = j / n *)
  let half = 1 lsl 52 and quarter = 1 lsl 51 in
  List.iter
    (fun (n, k) ->
      check_int "crafted draw" k
        (Int64.to_int
           (Int64.shift_right_logical (Rng.next_int64 (rng_drawing k)) 11));
      check_int
        (Fmt.str "n=%d tie at %d/2^53" n k)
        (zipf_scan ~n ~s:0.0 (rng_drawing k))
        (Rng.zipf ~n ~s:0.0 (rng_drawing k)))
    [ (2, half); (4, quarter); (4, half); (4, 3 * quarter) ]

let test_bernoulli_extremes () =
  let rng = Rng.create 1 in
  check "p=0 never fires" false
    (List.exists (fun _ -> Rng.bernoulli rng 0.0) (List.init 50 Fun.id));
  check "p=1 always fires" true
    (List.for_all (fun _ -> Rng.bernoulli rng 1.0) (List.init 50 Fun.id))

(* ---------------- Library models ---------------- *)

let test_library_math () =
  check "min" true
    (Value.equal (Library.apply "Math.min" [ Value.Int 3; Value.Int 5 ]) (Value.Int 3));
  check "max mixed promotes" true
    (Value.equal_approx
       (Library.apply "Math.max" [ Value.Int 3; Value.Float 5.5 ])
       (Value.Float 5.5));
  check "abs" true
    (Value.equal (Library.apply "Math.abs" [ Value.Int (-4) ]) (Value.Int 4));
  check "sqrt" true
    (Value.equal_approx
       (Library.apply "Math.sqrt" [ Value.Float 9.0 ])
       (Value.Float 3.0))

let test_library_strings () =
  check "equals" true
    (Value.equal
       (Library.apply "String.equals" [ Value.Str "ab"; Value.Str "ab" ])
       (Value.Bool true));
  check "contains" true
    (Value.equal
       (Library.apply "String.contains" [ Value.Str "xkidsy"; Value.Str "kids" ])
       (Value.Bool true));
  check "contains negative" true
    (Value.equal
       (Library.apply "String.contains" [ Value.Str "xyz"; Value.Str "kids" ])
       (Value.Bool false));
  check "startsWith" true
    (Value.equal
       (Library.apply "String.startsWith" [ Value.Str "ERROR: x"; Value.Str "ERROR" ])
       (Value.Bool true))

let test_library_dates () =
  let d1 = Library.parse_date "1994-01-01" in
  let d2 = Library.parse_date "1995-06-15" in
  check "date order" true (d1 < d2);
  check "before" true
    (Value.equal
       (Library.apply "Date.before" [ Value.Int d1; Value.Int d2 ])
       (Value.Bool true));
  Alcotest.check_raises "unknown method raises"
    (Library.Unknown_method "Nope.nope/0") (fun () ->
      ignore (Library.apply "Nope.nope" []))

(* malformed or out-of-range arguments raise Value.Type_error with an
   accurate message, which the IR evaluator reports as an Eval_error *)
let test_library_errors () =
  let module Ir = Casper_ir.Lang in
  let module Eval = Casper_ir.Eval in
  let cases =
    [
      ( "String.charAt",
        [ Value.Str "ab"; Value.Int 2 ],
        {|String.charAt: index 2 out of range for "ab"|} );
      ( "String.charAt",
        [ Value.Str "ab"; Value.Int (-1) ],
        {|String.charAt: index -1 out of range for "ab"|} );
      ( "Integer.parseInt",
        [ Value.Str "12x" ],
        {|Integer.parseInt: malformed integer "12x"|} );
      ( "Double.parseDouble",
        [ Value.Str "x.5" ],
        {|Double.parseDouble: malformed number "x.5"|} );
      ( "Util.parseDate",
        [ Value.Str "1994-xx-01" ],
        {|Util.parseDate: malformed date literal "1994-xx-01"|} );
      ( "Util.parseDate",
        [ Value.Str "1994" ],
        {|Util.parseDate: malformed date literal "1994"|} );
    ]
  in
  let const = function
    | Value.Str s -> Ir.CStr s
    | Value.Int n -> Ir.CInt n
    | v -> Alcotest.failf "no IR constant for %a" Value.pp v
  in
  List.iter
    (fun (name, args, msg) ->
      Alcotest.check_raises (name ^ " via Library.apply") (Value.Type_error msg)
        (fun () -> ignore (Library.apply name args));
      Alcotest.check_raises (name ^ " via Eval.eval_expr")
        (Eval.Eval_error msg) (fun () ->
          ignore (Eval.eval_expr [] (Ir.Call (name, List.map const args)))))
    cases;
  check "charAt in range" true
    (Value.equal
       (Library.apply "String.charAt" [ Value.Str "ab"; Value.Int 1 ])
       (Value.Str "b"));
  check "parseInt" true
    (Value.equal (Library.apply "Integer.parseInt" [ Value.Str "-42" ]) (Value.Int (-42)))

(* ---------------- Tablefmt ---------------- *)

let test_tablefmt () =
  let s = T.render [ [ "a"; "bb" ]; [ "ccc"; "d" ] ] in
  check "render has separators" true (String.length s > 0);
  check "rows aligned" true
    (List.for_all
       (fun l -> String.length l = String.length (List.hd (String.split_on_char '\n' s)))
       (String.split_on_char '\n' s));
  check_str "fx formats" "2.5x" (T.fx 2.54)

let suite =
  [
    ( "common.value",
      [
        Alcotest.test_case "paper byte sizes" `Quick test_sizes;
        Alcotest.test_case "approx float equality" `Quick
          test_equal_approx_float;
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "hash reads every component" `Quick
          test_hash_reads_every_component;
      ] );
    Testenv.qsuite "common.value.props"
      [
        prop_compare_refl;
        prop_compare_antisym;
        prop_equal_approx_refl;
        prop_equal_approx_finite_not_inf;
        prop_size_positive;
        prop_to_string_matches_pp;
        prop_hash_agrees_with_equal;
        prop_size_of_reference;
      ];
    ( "common.multiset",
      [ Alcotest.test_case "group_by_key" `Quick test_group_by_key ] );
    Testenv.qsuite "common.multiset.props"
      [ prop_bag_equal_shuffle; prop_group_preserves_count ];
    ( "common.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "zipf table equals the scan" `Quick
          test_zipf_matches_scan;
      ] );
    Testenv.qsuite "common.rng.props" [ prop_rng_bounds; prop_zipf_bounds ];
    ( "common.library",
      [
        Alcotest.test_case "math models" `Quick test_library_math;
        Alcotest.test_case "string models" `Quick test_library_strings;
        Alcotest.test_case "date models" `Quick test_library_dates;
        Alcotest.test_case "malformed arguments" `Quick test_library_errors;
      ] );
    ( "common.tablefmt",
      [ Alcotest.test_case "render" `Quick test_tablefmt ] );
  ]
