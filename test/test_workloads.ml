(** Integration tests for the workload generators and suite descriptors:
    every benchmark's generator must supply every parameter of every
    method in its source, deterministically, with the advertised knobs. *)

module W = Casper_suites.Workload
module Value = Casper_common.Value
module Rng = Casper_common.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the strongest suite invariant: generated envs bind all params *)
let test_workloads_cover_all_params () =
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let prog = Minijava.Parser.parse_program b.source in
      let env = b.workload.Casper_suites.Suite.gen (Rng.create 7) ~n:50 in
      List.iter
        (fun (m : Minijava.Ast.meth) ->
          List.iter
            (fun (_, p) ->
              check
                (Fmt.str "%s: param %s of %s bound" b.name p
                   m.Minijava.Ast.mname)
                true (List.mem_assoc p env))
            m.Minijava.Ast.params)
        prog.Minijava.Ast.methods)
    Casper_suites.Registry.all_benchmarks

(* a generated value must have the runtime shape of its declared Java
   type: an [int] matrix bound to a [double[][]] parameter makes the
   engine integer-divide where the source divides doubles *)
let rec has_type (prog : Minijava.Ast.program) (t : Minijava.Ast.ty)
    (v : Value.t) : bool =
  let open Minijava.Ast in
  match (t, v) with
  | (TInt | TLong | TDate), Value.Int _
  | TFloat, Value.Float _
  | TBool, Value.Bool _
  | TString, Value.Str _ ->
      true
  | (TArray t' | TList t'), Value.List vs -> List.for_all (has_type prog t') vs
  | TMap (k, t'), Value.List kvs ->
      List.for_all
        (function
          | Value.Tuple [ a; b ] -> has_type prog k a && has_type prog t' b
          | _ -> false)
        kvs
  | TClass c, Value.Struct (c', fields) -> (
      String.equal c c'
      &&
      match find_class prog c with
      | None -> false
      | Some cd ->
          List.for_all
            (fun (ft, f) ->
              match List.assoc_opt f fields with
              | Some fv -> has_type prog ft fv
              | None -> false)
            cd.cfields)
  | _ -> false

let test_workloads_match_declared_types () =
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let prog = Minijava.Parser.parse_program b.source in
      let env = b.workload.Casper_suites.Suite.gen (Rng.create 7) ~n:50 in
      List.iter
        (fun (m : Minijava.Ast.meth) ->
          List.iter
            (fun (t, p) ->
              match List.assoc_opt p env with
              | None -> ()
              | Some v ->
                  check
                    (Fmt.str "%s: param %s of %s is a %a" b.name p
                       m.Minijava.Ast.mname Minijava.Ast.pp_ty t)
                    true (has_type prog t v))
            m.Minijava.Ast.params)
        prog.Minijava.Ast.methods)
    Casper_suites.Registry.all_benchmarks

let test_workload_determinism () =
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let e1 = b.workload.Casper_suites.Suite.gen (Rng.create 3) ~n:30 in
      let e2 = b.workload.Casper_suites.Suite.gen (Rng.create 3) ~n:30 in
      check (b.name ^ " deterministic") true
        (List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && Value.equal v1 v2)
           e1 e2))
    Casper_suites.Registry.all_benchmarks

let test_match_words_skew () =
  let count p =
    let rng = Rng.create 5 in
    match W.match_words rng ~n:2000 ~key1:"k1" ~key2:"k2" ~p1:p ~p2:0.0 with
    | Value.List ws ->
        List.length (List.filter (Value.equal (Value.Str "k1")) ws)
    | _ -> 0
  in
  check "p=0 no matches" true (count 0.0 = 0);
  check "p=0.5 roughly half" true (abs (count 0.5 - 1000) < 100);
  check "skew monotone" true (count 0.9 > count 0.3)

let test_words_vocab () =
  let rng = Rng.create 9 in
  match W.words rng ~n:3000 ~vocab:20 ~skew:1.0 with
  | Value.List ws ->
      let distinct =
        List.sort_uniq Value.compare ws |> List.length
      in
      check "vocab bound respected" true (distinct <= 20);
      check "several words used" true (distinct > 5)
  | _ -> Alcotest.fail "expected list"

let test_pixels_bounded () =
  let rng = Rng.create 4 in
  match W.pixels rng ~n:200 with
  | Value.List ps ->
      List.iter
        (fun p ->
          List.iter
            (fun c ->
              let v = Value.as_int (Value.field c p) in
              check "channel in 0..255" true (v >= 0 && v < 256))
            [ "r"; "g"; "b" ])
        ps
  | _ -> Alcotest.fail "expected list"

let test_matrix_dims () =
  let rng = Rng.create 4 in
  match W.matrix rng ~rows:7 ~cols:3 ~lo:0 ~hi:9 with
  | Value.List rows ->
      check_int "rows" 7 (List.length rows);
      List.iter
        (fun r -> check_int "cols" 3 (List.length (Value.as_list r)))
        rows
  | _ -> Alcotest.fail "expected matrix"

let test_scale_of () =
  let b = Casper_suites.Registry.find_benchmark "Sum" in
  let s = Casper_suites.Suite.scale_of b ~sample:1000 in
  check "scale = nominal / sample" true
    (Float.abs (s -. (b.workload.Casper_suites.Suite.nominal_n /. 1000.0))
    < 1e-9)

let test_registry_census () =
  check_int "7 suites" 7 (List.length Casper_suites.Registry.suites);
  check_int "55-ish benchmarks" (List.length Casper_suites.Registry.all_benchmarks)
    (List.fold_left
       (fun a (_, bs) -> a + List.length bs)
       0 Casper_suites.Registry.suites);
  match Casper_suites.Registry.find_benchmark "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* the MD5 of every Registry benchmark's printed input at two sizes,
   one line each, against test/corpus/workload_digests.txt: a generator
   that draws in another order or maps a draw differently shows here *)
let test_inputs_pinned () =
  let digest (b : Casper_suites.Suite.benchmark) (seed, n) =
    let env = b.workload.Casper_suites.Suite.gen (Rng.create seed) ~n in
    let text =
      String.concat ""
        (List.map (fun (x, v) -> x ^ "=" ^ Value.to_string v ^ "\n") env)
    in
    Fmt.str "%s/%s seed %d n %d %s" b.suite b.name seed n
      (Digest.to_hex (Digest.string text))
  in
  let actual =
    List.concat_map
      (fun b -> List.map (digest b) [ (1, 300); (7, 3000) ])
      Casper_suites.Registry.all_benchmarks
  in
  let golden =
    In_channel.with_open_bin "corpus/workload_digests.txt" In_channel.input_lines
  in
  Alcotest.(check (list string)) "input digests" golden actual

let suite =
  [
    ( "suites.workload",
      [
        Alcotest.test_case "generated inputs are pinned" `Quick
          test_inputs_pinned;
      ] );
    ( "workloads",
      [
        Alcotest.test_case "cover all method params" `Quick
          test_workloads_cover_all_params;
        Alcotest.test_case "match declared types" `Quick
          test_workloads_match_declared_types;
        Alcotest.test_case "deterministic" `Quick test_workload_determinism;
        Alcotest.test_case "match_words skew" `Quick test_match_words_skew;
        Alcotest.test_case "words vocab" `Quick test_words_vocab;
        Alcotest.test_case "pixels bounded" `Quick test_pixels_bounded;
        Alcotest.test_case "matrix dims" `Quick test_matrix_dims;
        Alcotest.test_case "scale_of" `Quick test_scale_of;
        Alcotest.test_case "registry" `Quick test_registry_census;
      ] );
  ]
