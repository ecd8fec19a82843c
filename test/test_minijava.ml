(** Tests for the MiniJava front end: lexer, parser, type checker and
    interpreter. *)

open Minijava
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vint n = Value.Int n
let vlist l = Value.List l
let vints l = vlist (List.map vint l)

(* ---------------- Lexer ---------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "for (int i = 0; i < 10; i++) x += 2.5e1;" in
  check "nonempty" true (List.length toks > 10);
  check "has float" true
    (List.exists (fun (t, _) -> t = Lexer.FLOAT 25.0) toks);
  check "has ++" true
    (List.exists (fun (t, _) -> t = Lexer.PUNCT "++") toks)

let test_lexer_comments () =
  let toks = Lexer.tokenize "a /* block */ b // line\n c" in
  check_int "three idents + eof" 4 (List.length toks)

let test_lexer_strings () =
  match Lexer.tokenize {|"he\"llo"|} with
  | (Lexer.STRING s, _) :: _ -> Alcotest.(check string) "escape" "he\"llo" s
  | _ -> Alcotest.fail "expected string token"

let test_lexer_suffixes () =
  check "float suffix" true
    (List.exists
       (fun (t, _) -> t = Lexer.FLOAT 1.0)
       (Lexer.tokenize "1.0f"));
  check "long suffix is int" true
    (List.exists (fun (t, _) -> t = Lexer.INT 5) (Lexer.tokenize "5L"))

(* ---------------- Parser ---------------- *)

let parse = Parser.parse_program

let test_parse_method () =
  let p = parse "int f(int x) { return x + 1; }" in
  check_int "one method" 1 (List.length p.Ast.methods);
  let m = List.hd p.Ast.methods in
  Alcotest.(check string) "name" "f" m.Ast.mname;
  check "returns int" true (m.Ast.ret = Ast.TInt)

let test_parse_class () =
  let p = parse "class P { int x; double y; } int g(P p) { return p.x; }" in
  check_int "one class" 1 (List.length p.Ast.classes);
  check_int "two fields" 2
    (List.length (List.hd p.Ast.classes).Ast.cfields)

let test_parse_generics () =
  let p = parse "int f(List<String> l, Map<String, Integer> m) { return 0; }" in
  let m = List.hd p.Ast.methods in
  check "list of string" true
    (List.assoc "l" (List.map (fun (t, n) -> (n, t)) m.Ast.params)
    = Ast.TList Ast.TString);
  check "boxed Integer maps to int" true
    (List.assoc "m" (List.map (fun (t, n) -> (n, t)) m.Ast.params)
    = Ast.TMap (Ast.TString, Ast.TInt))

let test_parse_precedence () =
  match Parser.parse_expr_string "1 + 2 * 3 < 4 && true" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, Ast.Binop (Ast.Add, _, _), _), _)
    ->
      ()
  | _ -> Alcotest.fail "precedence mis-parsed"

let test_parse_ternary_and_cast () =
  (match Parser.parse_expr_string "(double) x" with
  | Ast.Cast (Ast.TFloat, Ast.Var "x") -> ()
  | _ -> Alcotest.fail "cast mis-parsed");
  match Parser.parse_expr_string "a > 0 ? a : 0 - a" with
  | Ast.Ternary _ -> ()
  | _ -> Alcotest.fail "ternary mis-parsed"

let test_parse_static_call () =
  match Parser.parse_expr_string "Math.min(a, b)" with
  | Ast.Call ("Math.min", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "static call mis-parsed"

let test_parse_enhanced_for () =
  let p = parse "int f(List<Integer> l) { int s = 0; for (int x : l) s += x; return s; }" in
  let m = List.hd p.Ast.methods in
  check "has foreach" true
    (List.exists (function Ast.ForEach _ -> true | _ -> false) m.Ast.body)

let test_parse_arrays () =
  let p = parse "int f(int[][] m, int n) { int[] a = new int[n]; a[0] = m[1][2]; return a[0]; }" in
  check_int "parsed" 1 (List.length p.Ast.methods)

let test_parse_error_lenient () =
  (* any Parse_error is fine; the exact message is not part of the API *)
  match parse "int f() { if }" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* ---------------- Typecheck ---------------- *)

let test_typecheck_ok () =
  let p =
    parse
      {|
class R { double amount; }
double f(List<R> rows, double t) {
  double acc = 0;
  for (R r : rows) { if (r.amount > t) acc += r.amount; }
  return acc;
}|}
  in
  Typecheck.check_program p

let test_typecheck_bad_field () =
  let p = parse "class R { int x; } int f(R r) { return r.y; }" in
  match Typecheck.check_program p with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error"

let test_typecheck_bad_arith () =
  let p = parse "int f(String s) { return s * 2; }" in
  match Typecheck.check_program p with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error"

let test_typecheck_method_env () =
  let p = parse "int f(int a) { double b = 0; for (int i = 0; i < a; i++) b += i; return 0; }" in
  let env = Typecheck.method_env (List.hd p.Ast.methods) in
  check "i in env" true (List.mem_assoc "i" env);
  check "b is double" true (List.assoc "b" env = Ast.TFloat)

(* ---------------- Interpreter ---------------- *)

let run src name args = Interp.run_method (parse src) name args

let test_interp_sum () =
  let r =
    run "int sum(int[] a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
      "sum"
      [ vints [ 1; 2; 3; 4 ]; vint 4 ]
  in
  check "sum=10" true (Value.equal r (vint 10))

let test_interp_while_break () =
  let r =
    run
      "int f(int n) { int i = 0; while (true) { if (i >= n) break; i++; } return i; }"
      "f" [ vint 7 ]
  in
  check "loops to n" true (Value.equal r (vint 7))

let test_interp_continue () =
  let r =
    run
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2 == 0) continue; s += i; } return s; }"
      "f" [ vint 6 ]
  in
  check "sum of odds < 6" true (Value.equal r (vint 9))

let test_interp_do_while () =
  let r =
    run "int f() { int i = 0; do { i++; } while (i < 3); return i; }" "f" []
  in
  check "do-while" true (Value.equal r (vint 3))

let test_interp_map_ops () =
  let r =
    run
      {|int f(List<String> ws) {
          Map<String, Integer> m = new HashMap<>();
          for (String w : ws) m.put(w, m.getOrDefault(w, 0) + 1);
          return m.get("a");
        }|}
      "f"
      [ vlist [ Value.Str "a"; Value.Str "b"; Value.Str "a" ] ]
  in
  check "map count" true (Value.equal r (vint 2))

let test_interp_list_mutation () =
  let r =
    run
      {|int f() {
          List<Integer> l = new ArrayList<>();
          l.add(5); l.add(7); l.set(0, 9);
          return l.get(0) + l.get(1) + l.size();
        }|}
      "f" []
  in
  check "list ops" true (Value.equal r (vint 18))

let test_interp_2d_assign () =
  let r =
    run
      "int f(int n) { int[][] m = new int[n][n]; m[1][1] = 5; return m[1][1] + m[0][0]; }"
      "f" [ vint 2 ]
  in
  check "2d" true (Value.equal r (vint 5))

let test_interp_struct () =
  let r =
    run
      "class P { int x; int y; } int f() { P p = new P(1, 2); p.y = 5; return p.x + p.y; }"
      "f" []
  in
  check "struct fields" true (Value.equal r (vint 6))

let test_interp_user_method_call () =
  let r =
    run "int sq(int x) { return x * x; } int f(int y) { return sq(y) + 1; }"
      "f" [ vint 3 ]
  in
  check "inlined call" true (Value.equal r (vint 10))

let test_interp_short_circuit () =
  (* the second conjunct would divide by zero *)
  let r =
    run "boolean f(int x) { return x != 0 && 10 / x > 1; }" "f" [ vint 0 ]
  in
  check "short circuit" true (Value.equal r (Value.Bool false))

let test_interp_division_by_zero () =
  match
    run "int f(int x) { return 1 / x; }" "f" [ vint 0 ]
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error"

let test_interp_neg_index () =
  match
    run "int f(int[] a, int i) { return a[i]; }" "f" [ vints [ 1 ]; vint (-1) ]
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error"

let test_interp_string_concat () =
  let r =
    run {|String f(String a, String b) { return a + b; }|} "f"
      [ Value.Str "x"; Value.Str "y" ]
  in
  check "concat" true (Value.equal r (Value.Str "xy"))

let test_interp_float_widening () =
  let r = run "double f() { double x = 3; return x / 2; }" "f" [] in
  check "widened division" true (Value.equal_approx r (Value.Float 1.5))

(* property: interpreted sum over random arrays equals OCaml's fold *)
let prop_interp_sum =
  QCheck.Test.make ~name:"interp sum = fold_left (+)" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (int_range (-100) 100))
    (fun l ->
      let r =
        run
          "int sum(int[] a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
          "sum"
          [ vints l; vint (List.length l) ]
      in
      Value.equal r (vint (List.fold_left ( + ) 0 l)))

let prop_interp_max =
  QCheck.Test.make ~name:"interp max = fold max" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (int_range (-100) 100))
    (fun l ->
      let r =
        run
          "int mx(List<Integer> a) { int m = -1000000; for (int x : a) { if (x > m) m = x; } return m; }"
          "mx" [ vints l ]
      in
      Value.equal r (vint (List.fold_left max (-1000000) l)))

(* property: on environments that bind some names twice, [lookup],
   [bind] and a struct's no-argument getter read the first binding, as
   [List.assoc_opt] and [List.remove_assoc] do, with the same errors *)
let prop_interp_lookup =
  let names = [ "a"; "b"; "c"; "ab" ] in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 8) (pair (oneofl names) (int_range 0 9)))
        (oneofl ("zz" :: names))
        (int_range 10 19))
  in
  let print (env, v, x) =
    Fmt.str "[%s] %s %d"
      (String.concat "; " (List.map (fun (n, i) -> Fmt.str "%s=%d" n i) env))
      v x
  in
  QCheck.Test.make ~name:"lookup, bind and getter read the first binding"
    ~count:300 (QCheck.make ~print gen) (fun (env, v, x) ->
      let env = List.map (fun (n, i) -> (n, vint i)) env in
      let outcome f =
        match f () with
        | r -> Ok r
        | exception Interp.Runtime_error m -> Error m
      in
      let expect unbound =
        match List.assoc_opt v env with
        | Some r -> Ok r
        | None -> Error (unbound ^ v)
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> Value.equal a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      let getter () =
        Interp.eval_expr
          { Ast.classes = []; methods = [] }
          [ ("s", Value.Struct ("S", env)) ]
          (Ast.MethodCall (Ast.Var "s", v, []))
      in
      same (outcome (fun () -> Interp.lookup env v)) (expect "unbound variable ")
      && same (outcome getter) (expect "unsupported method call ")
      && List.equal
           (fun (n1, x1) (n2, x2) -> String.equal n1 n2 && Value.equal x1 x2)
           (Interp.bind env v (vint x))
           ((v, vint x) :: List.remove_assoc v env))

let suite =
  [
    ( "minijava.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "strings" `Quick test_lexer_strings;
        Alcotest.test_case "suffixes" `Quick test_lexer_suffixes;
      ] );
    ( "minijava.parser",
      [
        Alcotest.test_case "method" `Quick test_parse_method;
        Alcotest.test_case "class" `Quick test_parse_class;
        Alcotest.test_case "generics" `Quick test_parse_generics;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "ternary & cast" `Quick test_parse_ternary_and_cast;
        Alcotest.test_case "static call" `Quick test_parse_static_call;
        Alcotest.test_case "enhanced for" `Quick test_parse_enhanced_for;
        Alcotest.test_case "arrays" `Quick test_parse_arrays;
        Alcotest.test_case "parse error" `Quick test_parse_error_lenient;
      ] );
    ( "minijava.typecheck",
      [
        Alcotest.test_case "well-typed program" `Quick test_typecheck_ok;
        Alcotest.test_case "bad field" `Quick test_typecheck_bad_field;
        Alcotest.test_case "bad arithmetic" `Quick test_typecheck_bad_arith;
        Alcotest.test_case "method env" `Quick test_typecheck_method_env;
      ] );
    ( "minijava.interp",
      [
        Alcotest.test_case "sum" `Quick test_interp_sum;
        Alcotest.test_case "while/break" `Quick test_interp_while_break;
        Alcotest.test_case "continue" `Quick test_interp_continue;
        Alcotest.test_case "do-while" `Quick test_interp_do_while;
        Alcotest.test_case "map ops" `Quick test_interp_map_ops;
        Alcotest.test_case "list mutation" `Quick test_interp_list_mutation;
        Alcotest.test_case "2d arrays" `Quick test_interp_2d_assign;
        Alcotest.test_case "struct construction" `Quick test_interp_struct;
        Alcotest.test_case "user method call" `Quick
          test_interp_user_method_call;
        Alcotest.test_case "short circuit" `Quick test_interp_short_circuit;
        Alcotest.test_case "division by zero" `Quick
          test_interp_division_by_zero;
        Alcotest.test_case "negative index" `Quick test_interp_neg_index;
        Alcotest.test_case "string concat" `Quick test_interp_string_concat;
        Alcotest.test_case "float widening" `Quick test_interp_float_widening;
      ] );
    Testenv.qsuite "minijava.interp.props"
      [ prop_interp_sum; prop_interp_max; prop_interp_lookup ];
  ]
