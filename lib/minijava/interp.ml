(** Reference interpreter for MiniJava.

    This is the ground truth for verification: a candidate program summary
    is correct iff evaluating it in the IR produces the same values as
    running the sequential code here (paper §3.3 formalizes this with
    Hoare-logic VCs; our bounded/full verifiers discharge them by
    execution over program states).

    Java [Map]s are modeled as bags of (key, value) tuples with unique
    keys; arrays and lists as {!Casper_common.Value.List}. Mutation is by
    functional update of the environment, which is cheap at verification
    scale. *)

open Ast
module Value = Casper_common.Value
module Library = Casper_common.Library

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type env = (string * Value.t) list

(* Break/Continue carry the environment at the point they fired, so
   that assignments executed earlier in the same iteration survive. *)
exception Break_exc of env
exception Continue_exc of env
exception Return_exc of Value.t option

(* Names are compared by [String.equal]; [List.assoc_opt] and
   [List.remove_assoc] would use polymorphic [compare]. *)

let rec lookup (env : env) v =
  match env with
  | [] -> err "unbound variable %s" v
  | (name, x) :: rest -> if String.equal name v then x else lookup rest v

(* [env] without the first binding of [v] *)
let rec unbind (env : env) v : env =
  match env with
  | [] -> []
  | ((name, _) as b) :: rest ->
      if String.equal name v then rest else b :: unbind rest v

let bind (env : env) v x : env = (v, x) :: unbind env v

(* default (zero) value of a declared type *)
let rec default_value prog = function
  | TInt | TLong | TDate -> Value.Int 0
  | TFloat -> Value.Float 0.0
  | TBool -> Value.Bool false
  | TString -> Value.Str ""
  | TArray _ | TList _ | TMap _ -> Value.List []
  | TClass c -> (
      match find_class prog c with
      | Some cd ->
          Value.Struct
            (c, List.map (fun (t, f) -> (f, default_value prog t)) cd.cfields)
      | None -> err "unknown class %s" c)
  | TVoid -> Value.Tuple []

(* Iteration fuel guards against accidental non-termination in synthesized
   or adversarial inputs. *)
let max_steps = 50_000_000

type state = { prog : program; mutable steps : int }

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > max_steps then err "interpreter step budget exceeded"

let num_binop op a b =
  let open Value in
  match (a, b) with
  | Int x, Int y -> (
      match op with
      | Add -> Int (x + y)
      | Sub -> Int (x - y)
      | Mul -> Int (x * y)
      | Div -> if y = 0 then err "division by zero" else Int (x / y)
      | Mod -> if y = 0 then err "division by zero" else Int (x mod y)
      | _ -> assert false)
  | _ ->
      let x = as_float a and y = as_float b in
      (match op with
      | Add -> Float (x +. y)
      | Sub -> Float (x -. y)
      | Mul -> Float (x *. y)
      | Div -> Float (x /. y)
      | Mod -> Float (Float.rem x y)
      | _ -> assert false)

let eval_binop op (a : Value.t) (b : Value.t) : Value.t =
  let open Value in
  match op with
  | Add -> (
      match (a, b) with
      | Str x, Str y -> Str (x ^ y)
      | Str x, v -> Str (x ^ to_string v)
      | v, Str y -> Str (to_string v ^ y)
      | _ -> num_binop Add a b)
  | Sub | Mul | Div | Mod -> num_binop op a b
  | Lt -> Bool (compare a b < 0)
  | Le -> Bool (compare a b <= 0)
  | Gt -> Bool (compare a b > 0)
  | Ge -> Bool (compare a b >= 0)
  | Eq -> Bool (equal a b)
  | Ne -> Bool (not (equal a b))
  | And -> Bool (as_bool a && as_bool b)
  | Or -> Bool (as_bool a || as_bool b)
  | BitAnd -> Int (as_int a land as_int b)
  | BitOr -> Int (as_int a lor as_int b)
  | BitXor -> Int (as_int a lxor as_int b)
  | Shl -> Int (as_int a lsl as_int b)
  | Shr -> Int (as_int a asr as_int b)

let list_update l i x =
  if i < 0 || i >= List.length l then err "index %d out of bounds" i
  else List.mapi (fun j y -> if j = i then x else y) l

(* Map-as-assoc-bag helpers *)
let map_get pairs k =
  List.find_map
    (fun p ->
      match p with
      | Value.Tuple [ k'; v ] when Value.equal k k' -> Some v
      | _ -> None)
    pairs

let map_put pairs k v =
  let found = ref false in
  let pairs' =
    List.map
      (fun p ->
        match p with
        | Value.Tuple [ k'; _ ] when Value.equal k k' ->
            found := true;
            Value.Tuple [ k; v ]
        | p -> p)
      pairs
  in
  if !found then pairs' else pairs @ [ Value.Tuple [ k; v ] ]

let rec eval st (env : env) (e : expr) : Value.t =
  tick st;
  let open Value in
  match e with
  | IntLit n -> Int n
  | FloatLit f -> Float f
  | BoolLit b -> Bool b
  | StrLit s -> Str s
  | Var v -> lookup env v
  | Unop (Neg, a) -> (
      match eval st env a with
      | Int n -> Int (-n)
      | Float f -> Float (-.f)
      | v -> terr "negation of %a" pp v)
  | Unop (Not, a) -> Bool (not (as_bool (eval st env a)))
  | Unop (BitNot, a) -> Int (lnot (as_int (eval st env a)))
  | Binop (And, a, b) ->
      (* short-circuit *)
      if as_bool (eval st env a) then eval st env b else Bool false
  | Binop (Or, a, b) ->
      if as_bool (eval st env a) then Bool true else eval st env b
  | Binop (op, a, b) -> eval_binop op (eval st env a) (eval st env b)
  | Index (a, i) -> (
      let l = as_list (eval st env a) in
      let i = as_int (eval st env i) in
      if i < 0 then err "negative index %d" i
      else
        match List.nth_opt l i with
        | Some x -> x
        | None -> err "index %d out of bounds (len %d)" i (List.length l))
  | Field (a, f) -> field f (eval st env a)
  | ArrLen a -> Int (List.length (as_list (eval st env a)))
  | Call (name, args) -> (
      let argv = List.map (eval st env) args in
      if Library.is_known name then Library.apply name argv
      else
        match find_method st.prog name with
        | Some m -> call_method st m argv
        | None -> err "unknown method %s" name)
  | MethodCall (recv, name, args) -> (
      let r = eval st env recv in
      let argv = List.map (eval st env) args in
      match (r, name, argv) with
      | Str _, _, _ -> Library.apply ("String." ^ name) (r :: argv)
      | Int _, ("before" | "after"), _ ->
          Library.apply ("Date." ^ name) (r :: argv)
      | List pairs, "get", [ k ]
        when (match k with Int _ -> false | _ -> true)
             || Option.is_some (map_get pairs k) -> (
          (* Map.get: lookup by key when the receiver is an association
             bag (non-integer key, or the key is present) *)
          match map_get pairs k with
          | Some v -> v
          | None -> err "Map.get: no such key %s" (to_string k))
      | List l, "get", [ Int i ] -> (
          if i < 0 then err "List.get(%d): negative index" i
          else
            match List.nth_opt l i with
            | Some x -> x
            | None -> err "List.get(%d) out of bounds" i)
      | List l, "size", [] -> Int (List.length l)
      | List l, "isEmpty", [] -> Bool (List.is_empty l)
      | List l, "contains", [ x ] -> Bool (List.exists (equal x) l)
      | List l, "indexOf", [ x ] ->
          let rec go i = function
            | [] -> -1
            | y :: _ when equal x y -> i
            | _ :: rest -> go (i + 1) rest
          in
          Int (go 0 l)
      | List pairs, "containsKey", [ k ] ->
          Bool (Option.is_some (map_get pairs k))
      | List pairs, "getOrDefault", [ k; d ] ->
          Option.value (map_get pairs k) ~default:d
      | Struct (_, fields), _, [] ->
          (* a getter: the first field named [name] *)
          let rec getter = function
            | [] -> err "unsupported method call %s" name
            | (f, x) :: rest -> if String.equal f name then x else getter rest
          in
          getter fields
      | _ -> err "unsupported method call %s" name)
  | NewArray (t, dims) ->
      let dim_vals = List.map (fun d -> as_int (eval st env d)) dims in
      let rec build = function
        | [] -> default_value st.prog t
        | d :: rest ->
            if d < 0 then err "negative array size"
            else List (List.init d (fun _ -> build rest))
      in
      build dim_vals
  | NewObj (name, args) -> (
      match name with
      | "ArrayList" | "LinkedList" | "HashMap" | "TreeMap" -> List []
      | _ -> (
          match find_class st.prog name with
          | Some cd ->
              let argv = List.map (eval st env) args in
              if List.length argv <> List.length cd.cfields then
                err "constructor arity mismatch for %s" name
              else
                Struct
                  (name, List.map2 (fun (_, f) v -> (f, v)) cd.cfields argv)
          | None -> err "unknown class %s" name))
  | Ternary (c, a, b) ->
      if as_bool (eval st env c) then eval st env a else eval st env b
  | Cast (t, a) -> (
      match (t, eval st env a) with
      | (TInt | TLong), Float f -> Int (int_of_float f)
      | (TInt | TLong), Int n -> Int n
      | TFloat, Int n -> Float (float_of_int n)
      | TFloat, Float f -> Float f
      | _, v -> v)

(* Mutating method calls on collections (add/put/set) need the *statement*
   context so the updated collection is written back to the environment. *)
and exec_method_call_stmt st env recv name args : env option =
  match recv with
  | Var base -> (
      let r = lookup env base in
      let argv = List.map (eval st env) args in
      match (r, name, argv) with
      | Value.List l, "add", [ x ] -> Some (bind env base (Value.List (l @ [ x ])))
      | Value.List l, "set", [ Value.Int i; x ] ->
          Some (bind env base (Value.List (list_update l i x)))
      | Value.List pairs, "put", [ k; v ] ->
          Some (bind env base (Value.List (map_put pairs k v)))
      | _ -> None)
  | _ -> None

and assign st (env : env) (lv : lvalue) (x : Value.t) : env =
  match lv with
  | LVar v -> bind env v x
  | LIndex (base, idx) ->
      let i = Value.as_int (eval st env idx) in
      update_path st env base (fun cur ->
          Value.List (list_update (Value.as_list cur) i x))
  | LField (base, f) ->
      update_path st env base (fun cur ->
          let name, fields = Value.as_struct cur in
          Value.Struct
            ( name,
              List.map
                (fun (k, v) -> if String.equal k f then (k, x) else (k, v))
                fields ))

(* Rebuild the value at an lvalue path rooted at a variable. *)
and update_path st (env : env) (path : expr) (f : Value.t -> Value.t) : env =
  match path with
  | Var v -> bind env v (f (lookup env v))
  | Index (base, idx) ->
      let i = Value.as_int (eval st env idx) in
      update_path st env base (fun cur ->
          let l = Value.as_list cur in
          match List.nth_opt l i with
          | Some elt -> Value.List (list_update l i (f elt))
          | None -> err "index %d out of bounds" i)
  | Field (base, fld) ->
      update_path st env base (fun cur ->
          let name, fields = Value.as_struct cur in
          Value.Struct
            ( name,
              List.map
                (fun (k, v) -> if String.equal k fld then (k, f v) else (k, v))
                fields ))
  | _ -> err "unsupported lvalue"

and exec st (env : env) (s : stmt) : env =
  tick st;
  match s with
  | Decl (t, v, init) ->
      let x =
        match init with
        | Some e -> (
            match (t, eval st env e) with
            (* Java's implicit int→double widening at initialization *)
            | TFloat, Value.Int n -> Value.Float (float_of_int n)
            | _, x -> x)
        | None -> default_value st.prog t
      in
      bind env v x
  | Assign (lv, e) ->
      let x = eval st env e in
      assign st env lv x
  | If (c, t, f) ->
      if Value.as_bool (eval st env c) then exec_list st env t
      else exec_list st env f
  | While (c, body) ->
      let env = ref env in
      (try
         while Value.as_bool (eval st !env c) do
           tick st;
           try env := exec_list st !env body with Continue_exc e -> env := e
         done
       with Break_exc e -> env := e);
      !env
  | DoWhile (body, c) ->
      let env = ref env in
      (try
         let continue_ = ref true in
         while !continue_ do
           tick st;
           (try env := exec_list st !env body with Continue_exc e -> env := e);
           continue_ := Value.as_bool (eval st !env c)
         done
       with Break_exc e -> env := e);
      !env
  | For (init, cond, upd, body) ->
      let env = ref (exec_list st env init) in
      (try
         while
           match cond with
           | Some c -> Value.as_bool (eval st !env c)
           | None -> true
         do
           tick st;
           (try env := exec_list st !env body with Continue_exc e -> env := e);
           env := exec_list st !env upd
         done
       with Break_exc e -> env := e);
      !env
  | ForEach (_, v, e, body) ->
      let items = Value.as_list (eval st env e) in
      let env = ref env in
      (try
         List.iter
           (fun item ->
             tick st;
             env := bind !env v item;
             try env := exec_list st !env body with Continue_exc e -> env := e)
           items
       with Break_exc e -> env := e);
      !env
  | Break -> raise (Break_exc env)
  | Continue -> raise (Continue_exc env)
  | Return None -> raise (Return_exc None)
  | Return (Some e) -> raise (Return_exc (Some (eval st env e)))
  | ExprStmt (MethodCall (recv, name, args)) -> (
      match exec_method_call_stmt st env recv name args with
      | Some env' -> env'
      | None ->
          ignore (eval st env (MethodCall (recv, name, args)));
          env)
  | ExprStmt e ->
      ignore (eval st env e);
      env
  | Block b -> exec_list st env b

and exec_list st env stmts = List.fold_left (exec st) env stmts

and call_method st (m : meth) (args : Value.t list) : Value.t =
  if List.length args <> List.length m.params then
    err "arity mismatch calling %s" m.mname
  else
    let env = List.map2 (fun (_, p) a -> (p, a)) m.params args in
    match exec_list st env m.body with
    | _ -> Value.Tuple [] (* void, no return *)
    | exception Return_exc (Some v) -> v
    | exception Return_exc None -> Value.Tuple []

(** Run method [name] of [prog] on [args]. *)
let run_method (prog : program) (name : string) (args : Value.t list) :
    Value.t =
  match find_method prog name with
  | Some m -> call_method { prog; steps = 0 } m args
  | None -> err "no method named %s" name

(* a fragment is a statement list, not a method body *)
let in_fragment f = try f () with Return_exc _ -> err "return inside fragment"

(** Execute a statement list in a given environment (fragment execution
    for verification). Returns the final environment. *)
let run_stmts (prog : program) (env : env) (stmts : stmt list) : env =
  let st = { prog; steps = 0 } in
  in_fragment (fun () -> exec_list st env stmts)

(** Evaluate one expression in an environment. *)
let eval_expr (prog : program) (env : env) (e : expr) : Value.t =
  eval { prog; steps = 0 } env e

(* ------------------------------------------------------------------ *)
(* Resumable loops: a loop run over a prefix of its outer units, paused
   where the run over a longer prefix goes on. *)

type paused = { env : env; steps : int; left : bool }

(* [exec]'s [For] loop after [init], with the test [idx < bound] *)
let counted_from (st : state) env ~idx ~upd ~body bound : paused =
  let test = Binop (Lt, Var idx, IntLit bound) in
  let env = ref env in
  try
    let rec go () =
      let steps = st.steps in
      if Value.as_bool (eval st !env test) then (
        tick st;
        (try env := exec_list st !env body with Continue_exc e -> env := e);
        env := exec_list st !env upd;
        go ())
      else { env = !env; steps; left = false }
    in
    go ()
  with Break_exc e -> { env = e; steps = st.steps; left = true }

let counted_prefix prog env ~init ~idx ~upd ~body bound =
  let st : state = { prog; steps = 0 } in
  in_fragment (fun () ->
      tick st;
      let env = exec_list st env init in
      counted_from st env ~idx ~upd ~body bound)

let counted_resume prog (p : paused) ~idx ~upd ~body bound =
  if p.left then p
  else
    in_fragment (fun () ->
        counted_from
          ({ prog; steps = p.steps } : state)
          p.env ~idx ~upd ~body bound)

(* [exec]'s [ForEach] loop over [items] *)
let items_from (st : state) env ~var ~body items : paused =
  let env = ref env in
  try
    List.iter
      (fun item ->
        tick st;
        env := bind !env var item;
        try env := exec_list st !env body with Continue_exc e -> env := e)
      items;
    { env = !env; steps = st.steps; left = false }
  with Break_exc e -> { env = e; steps = st.steps; left = true }

let items_prefix prog env ~coll ~var ~body =
  let st : state = { prog; steps = 0 } in
  in_fragment (fun () ->
      tick st;
      let items = Value.as_list (eval st env coll) in
      items_from st env ~var ~body items)

let items_resume prog (p : paused) ~var ~body items =
  if p.left then p
  else
    in_fragment (fun () ->
        items_from ({ prog; steps = p.steps } : state) p.env ~var ~body items)
