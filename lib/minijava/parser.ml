open Ast
open Lexer

exception Parse_error of string

type t = { toks : (token * int) array; mutable idx : int }

let make toks = { toks = Array.of_list toks; idx = 0 }
let peek p = fst p.toks.(p.idx)
let peek2 p = if p.idx + 1 < Array.length p.toks then fst p.toks.(p.idx + 1) else EOF
let peekn p n = if p.idx + n < Array.length p.toks then fst p.toks.(p.idx + n) else EOF
let line p = snd p.toks.(min p.idx (Array.length p.toks - 1))
let advance p = p.idx <- p.idx + 1

let error p fmt =
  Fmt.kstr
    (fun s ->
      raise
        (Parse_error
           (Fmt.str "line %d: %s (at %s)" (line p) s
              (token_to_string (peek p)))))
    fmt

let expect_punct p s =
  match peek p with
  | PUNCT x when String.equal x s -> advance p
  | _ -> error p "expected '%s'" s

let expect_keyword p s =
  match peek p with
  | KEYWORD x when String.equal x s -> advance p
  | _ -> error p "expected '%s'" s

let expect_ident p =
  match peek p with
  | IDENT x ->
      advance p;
      x
  | _ -> error p "expected identifier"

let is_punct p s = match peek p with PUNCT x -> String.equal x s | _ -> false

let eat_punct p s =
  if is_punct p s then (
    advance p;
    true)
  else false

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

let base_ty_of_name = function
  | "String" -> Some TString
  | "Date" -> Some TDate
  | "Integer" -> Some TInt
  | "Long" -> Some TLong
  | "Double" | "Float" -> Some TFloat
  | "Boolean" -> Some TBool
  | _ -> None

let rec parse_ty p : ty =
  let base =
    match peek p with
    | KEYWORD "int" ->
        advance p;
        TInt
    | KEYWORD "long" ->
        advance p;
        TLong
    | KEYWORD ("double" | "float") ->
        advance p;
        TFloat
    | KEYWORD "boolean" ->
        advance p;
        TBool
    | KEYWORD "void" ->
        advance p;
        TVoid
    | IDENT name -> (
        advance p;
        match base_ty_of_name name with
        | Some t -> t
        | None -> parse_generic p name)
    | _ -> error p "expected a type"
  in
  parse_array_suffix p base

and parse_generic p name =
  let args () =
    expect_punct p "<";
    if is_punct p ">" then (
      advance p;
      [])
    else
      let rec go acc =
        let t = parse_ty p in
        if eat_punct p "," then go (t :: acc)
        else (
          expect_punct p ">";
          List.rev (t :: acc))
      in
      go []
  in
  match name with
  | "List" | "ArrayList" | "LinkedList" -> (
      match args () with
      | [ t ] -> TList t
      | [] -> TList TInt
      | _ -> error p "List takes one type argument")
  | "Map" | "HashMap" | "TreeMap" -> (
      match args () with
      | [ k; v ] -> TMap (k, v)
      | [] -> TMap (TInt, TInt)
      | _ -> error p "Map takes two type arguments")
  | _ -> TClass name

and parse_array_suffix p base =
  if is_punct p "[" && peek2 p = PUNCT "]" then (
    advance p;
    advance p;
    parse_array_suffix p (TArray base))
  else base

(* Is the token at offset [n] the start of a type followed by an
   identifier (i.e., a declaration)?  Handles `int x`, `int[] x`,
   `List<T> x`, `Point p`. *)
let looks_like_decl p =
  match peek p with
  | KEYWORD ("int" | "long" | "double" | "float" | "boolean") -> true
  | IDENT _ -> (
      (* IDENT IDENT | IDENT '<' ... | IDENT '[' ']' IDENT *)
      match peek2 p with
      | IDENT _ -> true
      | PUNCT "<" -> true
      | PUNCT "[" -> (
          match (peekn p 2, peekn p 3) with
          | PUNCT "]", IDENT _ -> true
          | _ -> false)
      | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing                                    *)

let static_namespaces =
  [ "Math"; "Integer"; "Double"; "Util"; "Long"; "ImageJ" ]

let rec parse_expr p : expr = parse_ternary p

and parse_ternary p =
  let c = parse_binop p 1 in
  if eat_punct p "?" then (
    let t = parse_expr p in
    expect_punct p ":";
    let f = parse_expr p in
    Ternary (c, t, f))
  else c

and binop_of_punct = function
  | "||" -> Some (1, Or)
  | "&&" -> Some (2, And)
  | "|" -> Some (3, BitOr)
  | "^" -> Some (4, BitXor)
  | "&" -> Some (5, BitAnd)
  | "==" -> Some (6, Eq)
  | "!=" -> Some (6, Ne)
  | "<" -> Some (7, Lt)
  | "<=" -> Some (7, Le)
  | ">" -> Some (7, Gt)
  | ">=" -> Some (7, Ge)
  | "<<" -> Some (8, Shl)
  | ">>" -> Some (8, Shr)
  | "+" -> Some (9, Add)
  | "-" -> Some (9, Sub)
  | "*" -> Some (10, Mul)
  | "/" -> Some (10, Div)
  | "%" -> Some (10, Mod)
  | _ -> None

and parse_binop p min_prec =
  let lhs = ref (parse_unary p) in
  let continue_ = ref true in
  while !continue_ do
    match peek p with
    | PUNCT op -> (
        match binop_of_punct op with
        | Some (prec, bop) when prec >= min_prec ->
            advance p;
            let rhs = parse_binop p (prec + 1) in
            lhs := Binop (bop, !lhs, rhs)
        | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary p =
  match peek p with
  | PUNCT "-" ->
      advance p;
      Unop (Neg, parse_unary p)
  | PUNCT "!" ->
      advance p;
      Unop (Not, parse_unary p)
  | PUNCT "~" ->
      advance p;
      Unop (BitNot, parse_unary p)
  | _ -> parse_postfix p

and parse_postfix p =
  let e = ref (parse_primary p) in
  let continue_ = ref true in
  while !continue_ do
    match peek p with
    | PUNCT "." -> (
        advance p;
        let name = expect_ident p in
        if is_punct p "(" then
          let args = parse_args p in
          e :=
            (match !e with
            | Var ns when List.mem ns static_namespaces ->
                Call (ns ^ "." ^ name, args)
            | recv -> MethodCall (recv, name, args))
        else if String.equal name "length" then e := ArrLen !e
        else e := Field (!e, name))
    | PUNCT "[" ->
        advance p;
        let i = parse_expr p in
        expect_punct p "]";
        e := Index (!e, i)
    | _ -> continue_ := false
  done;
  !e

and parse_args p =
  expect_punct p "(";
  if eat_punct p ")" then []
  else
    let rec go acc =
      let a = parse_expr p in
      if eat_punct p "," then go (a :: acc)
      else (
        expect_punct p ")";
        List.rev (a :: acc))
    in
    go []

and parse_primary p =
  match peek p with
  | INT n ->
      advance p;
      IntLit n
  | FLOAT f ->
      advance p;
      FloatLit f
  | STRING s ->
      advance p;
      StrLit s
  | KEYWORD "true" ->
      advance p;
      BoolLit true
  | KEYWORD "false" ->
      advance p;
      BoolLit false
  | KEYWORD "new" -> parse_new p
  | PUNCT "(" -> (
      (* cast or parenthesized expression *)
      match (peek2 p, peekn p 2) with
      | KEYWORD ("int" | "long" | "double" | "float" | "boolean"), PUNCT ")"
        ->
          advance p;
          let t = parse_ty p in
          expect_punct p ")";
          Cast (t, parse_unary p)
      | _ ->
          advance p;
          let e = parse_expr p in
          expect_punct p ")";
          e)
  | IDENT name ->
      advance p;
      if is_punct p "(" then Call (name, parse_args p) else Var name
  | _ -> error p "expected an expression"

and parse_new p =
  expect_keyword p "new";
  match peek p with
  | KEYWORD ("int" | "long" | "double" | "float" | "boolean") | IDENT _ -> (
      (* capture the element/class name, then dims or constructor *)
      let name =
        match peek p with
        | KEYWORD k ->
            advance p;
            k
        | IDENT i ->
            advance p;
            i
        | _ -> assert false
      in
      let elem_ty =
        match name with
        | "int" -> Some TInt
        | "long" -> Some TLong
        | "double" | "float" -> Some TFloat
        | "boolean" -> Some TBool
        | "String" -> Some TString
        | _ -> None
      in
      (* generic args on constructor: new ArrayList<Foo>() *)
      if is_punct p "<" then (
        let depth = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          (match peek p with
          | PUNCT "<" -> incr depth
          | PUNCT ">" -> decr depth
          | _ -> ());
          advance p;
          if !depth = 0 then continue_ := false
        done);
      if is_punct p "[" then (
        let dims = ref [] in
        while is_punct p "[" do
          advance p;
          let d = parse_expr p in
          expect_punct p "]";
          dims := d :: !dims
        done;
        let base = match elem_ty with Some t -> t | None -> TClass name in
        NewArray (base, List.rev !dims))
      else if is_punct p "(" then
        let args = parse_args p in
        NewObj (name, args)
      else error p "expected '[' or '(' after new %s" name)
  | _ -> error p "expected a type after new"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let lvalue_of_expr p = function
  | Var v -> LVar v
  | Index (b, i) -> LIndex (b, i)
  | Field (b, f) -> LField (b, f)
  | _ -> error p "invalid assignment target"

let op_assign_ops =
  [ ("+=", Add); ("-=", Sub); ("*=", Mul); ("/=", Div); ("%=", Mod) ]

let rec parse_stmt p : stmt =
  match peek p with
  | PUNCT "{" -> Block (parse_block p)
  | KEYWORD "if" ->
      advance p;
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      let t = parse_stmt_as_list p in
      let f =
        if (match peek p with KEYWORD "else" -> true | _ -> false) then (
          advance p;
          parse_stmt_as_list p)
        else []
      in
      If (c, t, f)
  | KEYWORD "while" ->
      advance p;
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      While (c, parse_stmt_as_list p)
  | KEYWORD "do" ->
      advance p;
      let b = parse_stmt_as_list p in
      expect_keyword p "while";
      expect_punct p "(";
      let c = parse_expr p in
      expect_punct p ")";
      expect_punct p ";";
      DoWhile (b, c)
  | KEYWORD "for" -> parse_for p
  | KEYWORD "return" ->
      advance p;
      if eat_punct p ";" then Return None
      else
        let e = parse_expr p in
        expect_punct p ";";
        Return (Some e)
  | KEYWORD "break" ->
      advance p;
      expect_punct p ";";
      Break
  | KEYWORD "continue" ->
      advance p;
      expect_punct p ";";
      Continue
  | _ ->
      if looks_like_decl p then (
        let s = parse_decl p in
        expect_punct p ";";
        s)
      else
        let s = parse_simple_stmt p in
        expect_punct p ";";
        s

and parse_decl p =
  let t = parse_ty p in
  let name = expect_ident p in
  (* C-style array suffix: int m[]; *)
  let t =
    if is_punct p "[" && peek2 p = PUNCT "]" then (
      advance p;
      advance p;
      TArray t)
    else t
  in
  if eat_punct p "=" then Decl (t, name, Some (parse_expr p))
  else Decl (t, name, None)

(* assignment / op-assignment / increment / bare expression, no ';' *)
and parse_simple_stmt p =
  let e = parse_expr p in
  match peek p with
  | PUNCT "=" ->
      advance p;
      let rhs = parse_expr p in
      Assign (lvalue_of_expr p e, rhs)
  | PUNCT op when List.mem_assoc op op_assign_ops ->
      advance p;
      let bop = List.assoc op op_assign_ops in
      let rhs = parse_expr p in
      Assign (lvalue_of_expr p e, Binop (bop, e, rhs))
  | PUNCT "++" ->
      advance p;
      Assign (lvalue_of_expr p e, Binop (Add, e, IntLit 1))
  | PUNCT "--" ->
      advance p;
      Assign (lvalue_of_expr p e, Binop (Sub, e, IntLit 1))
  | _ -> ExprStmt e

and parse_for p =
  expect_keyword p "for";
  expect_punct p "(";
  (* enhanced for?  "for (Type x : e)" *)
  let save = p.idx in
  let enhanced =
    if looks_like_decl p then (
      try
        let t = parse_ty p in
        let name = expect_ident p in
        if eat_punct p ":" then Some (t, name) else None
      with Parse_error _ ->
        p.idx <- save;
        None)
    else None
  in
  match enhanced with
  | Some (t, name) ->
      let e = parse_expr p in
      expect_punct p ")";
      ForEach (t, name, e, parse_stmt_as_list p)
  | None ->
      p.idx <- save;
      let init =
        if is_punct p ";" then []
        else if looks_like_decl p then [ parse_decl p ]
        else [ parse_simple_stmt p ]
      in
      expect_punct p ";";
      let cond = if is_punct p ";" then None else Some (parse_expr p) in
      expect_punct p ";";
      let upd = if is_punct p ")" then [] else [ parse_simple_stmt p ] in
      expect_punct p ")";
      For (init, cond, upd, parse_stmt_as_list p)

and parse_stmt_as_list p : stmt list =
  if is_punct p "{" then parse_block p else [ parse_stmt p ]

and parse_block p : stmt list =
  expect_punct p "{";
  let rec go acc =
    if eat_punct p "}" then List.rev acc else go (parse_stmt p :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let skip_modifiers p =
  let continue_ = ref true in
  while !continue_ do
    match peek p with
    | KEYWORD ("public" | "private" | "static" | "final") -> advance p
    | _ -> continue_ := false
  done

let parse_class p : class_decl =
  expect_keyword p "class";
  let cname = expect_ident p in
  expect_punct p "{";
  let rec fields acc =
    if eat_punct p "}" then List.rev acc
    else (
      skip_modifiers p;
      let t = parse_ty p in
      let name = expect_ident p in
      expect_punct p ";";
      fields ((t, name) :: acc))
  in
  { cname; cfields = fields [] }

let parse_method p : meth =
  skip_modifiers p;
  let ret = parse_ty p in
  let mname = expect_ident p in
  expect_punct p "(";
  let params =
    if eat_punct p ")" then []
    else
      let rec go acc =
        let t = parse_ty p in
        let name = expect_ident p in
        if eat_punct p "," then go ((t, name) :: acc)
        else (
          expect_punct p ")";
          List.rev ((t, name) :: acc))
      in
      go []
  in
  let body = parse_block p in
  { mname; ret; params; body }

let parse_program (src : string) : program =
  let p = make (tokenize src) in
  let rec go classes methods =
    match peek p with
    | EOF -> { classes = List.rev classes; methods = List.rev methods }
    | KEYWORD "class" -> go (parse_class p :: classes) methods
    | _ -> go classes (parse_method p :: methods)
  in
  go [] []

let parse_expr_string (src : string) : expr =
  let p = make (tokenize src) in
  parse_expr p
