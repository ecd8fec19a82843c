(** Tests for the spill codec: round-trip identity over adversarial
    values (nested containers, empty strings, extreme ints, special
    floats, structs), exactness of [encoded_size], compactness against
    the engine's [Value.size_of] byte model for struct-free values,
    golden encodings, framing, and malformed-input rejection. *)

module Codec = Mapreduce.Codec
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Round-trip equality must be bit-exact on floats — [Value.compare]
   (IEEE compare semantics) would miss a decoder that collapses -0.0
   into 0.0 or loses a NaN payload. *)
let rec bit_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Tuple xs, Value.Tuple ys | Value.List xs, Value.List ys ->
      List.length xs = List.length ys && List.for_all2 bit_eq xs ys
  | Value.Struct (n1, f1), Value.Struct (n2, f2) ->
      String.equal n1 n2
      && List.length f1 = List.length f2
      && List.for_all2
           (fun (a, x) (b, y) -> String.equal a b && bit_eq x y)
           f1 f2
  | _ -> Value.equal a b

(* ---------------- generators ---------------- *)

(* Wider than the suite-wide [Test_common.value_gen]: the codec must
   survive structs, full-range and extreme ints, non-finite floats and
   arbitrary (non-printable, empty) strings. *)
let codec_value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let int_gen =
    oneof
      [
        small_signed_int;
        int;
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ];
      ]
  in
  let float_gen =
    oneof
      [
        float;
        oneofl
          [ 0.0; -0.0; infinity; neg_infinity; nan; 1e308; -1e-308; 0.1 ];
      ]
  in
  let scalar =
    oneof
      [
        map (fun i -> Value.Int i) int_gen;
        map (fun f -> Value.Float f) float_gen;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Str s) (string_size (int_bound 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun l -> Value.Tuple l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Value.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map2
                   (fun name fs -> Value.Struct (name, fs))
                   (string_size (int_range 1 4))
                   (list_size (int_bound 3)
                      (pair (string_size (int_bound 5)) (self (n / 2)))) );
             ])

let codec_value_arb = QCheck.make ~print:Value.to_string codec_value_gen

let rec struct_free = function
  | Value.Struct _ -> false
  | Value.Tuple xs | Value.List xs -> List.for_all struct_free xs
  | _ -> true

(* ---------------- properties ---------------- *)

let prop_round_trip =
  QCheck.Test.make ~name:"decode (encode v) is bit-identical to v"
    ~count:500 codec_value_arb (fun v ->
      bit_eq v (Codec.decode (Codec.encode v)))

let prop_size_exact =
  QCheck.Test.make ~name:"encoded_size is the exact encoding length"
    ~count:500 codec_value_arb (fun v ->
      String.length (Codec.encode v) = Codec.encoded_size v)

(* the spill path's disk footprint never exceeds its accounted memory
   footprint; structs are exempt because size_of ignores constructor
   and field names, which the codec must keep *)
let prop_compact_vs_size_of =
  QCheck.Test.make
    ~name:"struct-free encodings are no larger than Value.size_of"
    ~count:500 codec_value_arb (fun v ->
      (not (struct_free v)) || Codec.encoded_size v <= Value.size_of v)

let prop_framed_stream =
  QCheck.Test.make ~name:"framed values round-trip through one buffer"
    ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map Value.to_string l))
       QCheck.Gen.(list_size (int_bound 8) codec_value_gen))
    (fun vs ->
      let buf = Buffer.create 256 in
      Codec.write_header buf;
      List.iter (Codec.write_framed buf) vs;
      let s = Buffer.contents buf in
      Codec.check_header s;
      let pos = ref Codec.header_size in
      let back = List.map (fun _ -> Codec.read_framed s pos) vs in
      !pos = String.length s && List.for_all2 bit_eq vs back)

let prop_varint_round_trip =
  QCheck.Test.make
    ~name:"varints round-trip on every 63-bit pattern" ~count:500
    QCheck.(
      make ~print:string_of_int
        Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]))
    (fun n ->
      let buf = Buffer.create 10 in
      Codec.write_varint buf n;
      let s = Buffer.contents buf in
      String.length s = Codec.varint_size n
      && Codec.read_varint s (ref 0) = n)

(* ---------------- golden encodings ---------------- *)

(* pinned bytes: a codec change that breaks old spill files must show
   up here, not as silent corruption *)
let test_golden_bytes () =
  check_str "Int 0" "\x00\x00" (Codec.encode (Value.Int 0));
  check_str "Int 1 (zigzag 2)" "\x00\x02" (Codec.encode (Value.Int 1));
  check_str "Int -1 (zigzag 1)" "\x00\x01" (Codec.encode (Value.Int (-1)));
  check_str "Int 300" "\x00\xd8\x04" (Codec.encode (Value.Int 300));
  check_str "Bool false" "\x02" (Codec.encode (Value.Bool false));
  check_str "Bool true" "\x03" (Codec.encode (Value.Bool true));
  check_str "Str ab" "\x04\x02ab" (Codec.encode (Value.Str "ab"));
  check_str "empty Str" "\x04\x00" (Codec.encode (Value.Str ""));
  check_str "empty Tuple" "\x05\x00" (Codec.encode (Value.Tuple []));
  check_str "Float 1.0 (IEEE bits LE)" "\x01\x00\x00\x00\x00\x00\x00\xf0\x3f"
    (Codec.encode (Value.Float 1.0));
  check_str "nested pair" "\x05\x02\x00\x02\x06\x01\x03"
    (Codec.encode
       (Value.Tuple [ Value.Int 1; Value.List [ Value.Bool true ] ]));
  check_str "struct keeps names" "\x07\x01P\x01\x01x\x00\x02"
    (Codec.encode (Value.Struct ("P", [ ("x", Value.Int 1) ])))

let test_extremes () =
  let rt v = bit_eq v (Codec.decode (Codec.encode v)) in
  check "min_int" true (rt (Value.Int min_int));
  check "max_int" true (rt (Value.Int max_int));
  check "negative zero keeps its sign" true (rt (Value.Float (-0.0)));
  check "nan payload survives" true
    (rt (Value.Float (Int64.float_of_bits 0x7ff0000000c0ffeeL)));
  check "infinities" true
    (rt (Value.List [ Value.Float infinity; Value.Float neg_infinity ]));
  check "deep nesting" true
    (rt
       (List.fold_left
          (fun acc i -> Value.Tuple [ Value.Int i; acc ])
          (Value.Str "") (List.init 200 Fun.id)))

let test_header () =
  let buf = Buffer.create 8 in
  Codec.write_header buf;
  check_int "header size" Codec.header_size (Buffer.length buf);
  Codec.check_header (Buffer.contents buf);
  let bad s =
    match Codec.check_header s with
    | exception Codec.Codec_error _ -> true
    | () -> false
  in
  check "wrong magic rejected" true (bad "XSPL\x01");
  check "future version rejected" true (bad "CSPL\x02");
  check "truncated header rejected" true (bad "CS")

(* ---------------- malformed input ---------------- *)

let rejects s =
  match Codec.decode s with
  | exception Codec.Codec_error _ -> true
  | _ -> false

let test_malformed () =
  check "empty input" true (rejects "");
  check "unknown tag" true (rejects "\x08");
  check "truncated int" true (rejects "\x00");
  check "truncated float" true (rejects "\x01\x00\x00");
  check "truncated string" true (rejects "\x04\x05ab");
  check "truncated tuple" true (rejects "\x05\x03\x02");
  check "absurd sequence count" true (rejects "\x06\xff\xff\xff\xff\x07");
  check "negative sequence count" true
    (rejects "\x06\x81\x80\x80\x80\x80\x80\x80\x80\x40");
  check "oversized varint" true
    (rejects "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01");
  check "trailing bytes" true (rejects "\x02\x00");
  check "struct with truncated fields" true (rejects "\x07\x01P\x02\x01x");
  (* frame announces 2 bytes but the payload is a 1-byte Bool *)
  (let pos = ref 0 in
   match Codec.read_framed "\x02\x02\x02" pos with
   | exception Codec.Codec_error _ -> ()
   | _ -> Alcotest.fail "frame length/payload mismatch accepted")

let suite =
  [
    ( "codec.golden",
      [
        Alcotest.test_case "pinned encodings" `Quick test_golden_bytes;
        Alcotest.test_case "extreme values" `Quick test_extremes;
        Alcotest.test_case "header" `Quick test_header;
        Alcotest.test_case "malformed input" `Quick test_malformed;
      ] );
    Testenv.qsuite "codec.props"
      [
        prop_round_trip;
        prop_size_exact;
        prop_compact_vs_size_of;
        prop_framed_stream;
        prop_varint_round_trip;
      ];
  ]
