open Minijava.Ast

(* ------------------------------------------------------------------ *)
(* One-step reductions                                                 *)

let shrink_expr (e : expr) : expr list =
  match e with
  | Binop (_, a, b) -> [ a; b ]
  | Ternary (c, t, f) -> [ t; f; c ]
  | Unop (_, a) | Cast (_, a) -> [ a ]
  | IntLit n when n <> 0 && n <> 1 -> [ IntLit 0; IntLit 1; IntLit (n / 2) ]
  | FloatLit f when f <> 0.0 && f <> 1.0 -> [ FloatLit 0.0; FloatLit 1.0 ]
  | StrLit s when String.length s > 0 ->
      [ StrLit ""; StrLit (String.sub s 0 (String.length s / 2)) ]
  | MethodCall (_, _, args) | Call (_, args) -> args
  | _ -> []

(* candidates for one expression in place: direct reductions plus
   reductions of each sub-expression *)
let rec expr_variants (e : expr) : expr list =
  let inside =
    match e with
    | IntLit _ | FloatLit _ | BoolLit _ | StrLit _ | Var _ -> []
    | Unop (op, a) -> List.map (fun a' -> Unop (op, a')) (expr_variants a)
    | Binop (op, a, b) ->
        List.map (fun a' -> Binop (op, a', b)) (expr_variants a)
        @ List.map (fun b' -> Binop (op, a, b')) (expr_variants b)
    | Index (a, b) ->
        List.map (fun b' -> Index (a, b')) (expr_variants b)
    | Field (a, f) -> List.map (fun a' -> Field (a', f)) (expr_variants a)
    | Call (f, args) -> List.map (fun a -> Call (f, a)) (list_variants expr_variants args)
    | MethodCall (r, m, args) ->
        List.map (fun a -> MethodCall (r, m, a)) (list_variants expr_variants args)
    | NewArray (t, dims) ->
        List.map (fun d -> NewArray (t, d)) (list_variants expr_variants dims)
    | NewObj (c, args) ->
        List.map (fun a -> NewObj (c, a)) (list_variants expr_variants args)
    | Ternary (c, t, f) ->
        List.map (fun c' -> Ternary (c', t, f)) (expr_variants c)
        @ List.map (fun t' -> Ternary (c, t', f)) (expr_variants t)
        @ List.map (fun f' -> Ternary (c, t, f')) (expr_variants f)
    | Cast (ty, a) -> List.map (fun a' -> Cast (ty, a')) (expr_variants a)
    | ArrLen a -> List.map (fun a' -> ArrLen a') (expr_variants a)
  in
  shrink_expr e @ inside

(* element-wise variants of a list, each change in one position (no
   element removal — that is handled at the statement level) *)
and list_variants : 'a. ('a -> 'a list) -> 'a list -> 'a list list =
 fun variants l ->
  List.concat
    (List.mapi
       (fun idx x ->
         List.map
           (fun x' -> List.mapi (fun j y -> if j = idx then x' else y) l)
           (variants x))
       l)

let opt_variants variants = function
  | None -> []
  | Some e -> List.map (fun e' -> Some e') (variants e)

let rec stmt_variants (s : stmt) : stmt list =
  match s with
  | Decl (t, n, init) ->
      List.map (fun i -> Decl (t, n, i)) (opt_variants expr_variants init)
  | Assign (lv, e) -> List.map (fun e' -> Assign (lv, e')) (expr_variants e)
  | If (c, t, f) ->
      (* collapse to an arm, drop the else, shrink the pieces *)
      [ Block t ]
      @ (if f <> [] then [ Block f; If (c, t, []) ] else [])
      @ List.map (fun c' -> If (c', t, f)) (expr_variants c)
      @ List.map (fun t' -> If (c, t', f)) (body_variants t)
      @ List.map (fun f' -> If (c, t, f')) (body_variants f)
  | While (c, b) ->
      List.map (fun c' -> While (c', b)) (expr_variants c)
      @ List.map (fun b' -> While (c, b')) (body_variants b)
  | DoWhile (b, c) ->
      List.map (fun b' -> DoWhile (b', c)) (body_variants b)
      @ List.map (fun c' -> DoWhile (b, c')) (expr_variants c)
  | For (init, cond, upd, b) ->
      List.map (fun c -> For (init, c, upd, b)) (opt_variants expr_variants cond)
      @ List.map (fun b' -> For (init, cond, upd, b')) (body_variants b)
  | ForEach (t, x, e, b) ->
      List.map (fun e' -> ForEach (t, x, e', b)) (expr_variants e)
      @ List.map (fun b' -> ForEach (t, x, e, b')) (body_variants b)
  | Return (Some e) ->
      Return None :: List.map (fun e' -> Return (Some e')) (expr_variants e)
  | ExprStmt e -> List.map (fun e' -> ExprStmt e') (expr_variants e)
  | Block b -> List.map (fun b' -> Block b') (body_variants b)
  | Break | Continue | Return None -> []

(* drop one statement, or vary one statement in place *)
and body_variants (b : stmt list) : stmt list list =
  List.mapi (fun idx _ -> List.filteri (fun j _ -> j <> idx) b) b
  @ list_variants stmt_variants b

let meth_variants (m : meth) : meth list =
  List.map (fun b -> { m with body = b }) (body_variants m.body)

let program_variants (p : program) : program list =
  (* drop a whole class (unused after other shrinks), then method-body
     reductions, smallest-granularity last *)
  List.mapi
    (fun idx _ ->
      { p with classes = List.filteri (fun j _ -> j <> idx) p.classes })
    p.classes
  @ List.concat
      (List.mapi
         (fun idx m ->
           List.map
             (fun m' ->
               {
                 p with
                 methods = List.mapi (fun j x -> if j = idx then m' else x) p.methods;
               })
             (meth_variants m))
         p.methods)

(* ------------------------------------------------------------------ *)
(* Greedy minimization                                                 *)

let well_formed (p : program) : bool =
  match
    let src = Minijava.Pp.program_to_string p in
    let p' = Minijava.Parser.parse_program src in
    Minijava.Typecheck.check_program p'
  with
  | () -> true
  | exception
      ( Minijava.Parser.Parse_error _ | Minijava.Lexer.Lex_error _
      | Minijava.Typecheck.Type_error _ ) ->
      false

let minimize ?(budget = 150) ~(still_fails : program -> bool)
    (prog : program) : program =
  let calls = ref 0 in
  let try_candidate c =
    !calls < budget && well_formed c
    &&
    (incr calls;
     still_fails c)
  in
  let rec go p =
    if !calls >= budget then p
    else
      match List.find_opt try_candidate (program_variants p) with
      | Some smaller -> go smaller
      | None -> p
  in
  go prog
