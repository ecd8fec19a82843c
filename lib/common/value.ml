(** Runtime values shared by the MiniJava interpreter, the IR evaluator and
    the MapReduce engine.

    A single value universe keeps verification honest: a candidate summary
    is checked by evaluating both the sequential program and the IR
    pipeline to values of this type and comparing them. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Tuple of t list
  | List of t list
  | Struct of string * (string * t) list
      (** constructor name, field assignments in declaration order *)

let rec compare (a : t) (b : t) : int =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Tuple xs, Tuple ys | List xs, List ys -> compare_list xs ys
  | Struct (n1, f1), Struct (n2, f2) ->
      let c = Stdlib.compare n1 n2 in
      if c <> 0 then c
      else
        compare_list (Stdlib.List.map snd f1) (Stdlib.List.map snd f2)
  | _ -> Stdlib.compare (tag a) (tag b)

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs' ys'

and tag = function
  | Int _ -> 0
  | Float _ -> 1
  | Bool _ -> 2
  | Str _ -> 3
  | Tuple _ -> 4
  | List _ -> 5
  | Struct _ -> 6

let equal a b = compare a b = 0

(* Agrees with [equal]: it reads what [compare] reads and nothing else.
   A struct hashes its name and field values but not its field names;
   [Hashtbl.seeded_hash] maps both zeros to one hash and every NaN to
   another; the tag keeps [Int 7] and [Float 7.0] apart; a tuple or list
   chains every component through the seed, however deep. *)
let rec hash_with seed v =
  let seed = seed + tag v in
  match v with
  | Int n -> Hashtbl.seeded_hash seed n
  | Float f -> Hashtbl.seeded_hash seed f
  | Bool b -> Hashtbl.seeded_hash seed b
  | Str s -> Hashtbl.seeded_hash seed s
  | Tuple xs | List xs -> List.fold_left hash_with seed xs
  | Struct (n, fs) ->
      List.fold_left
        (fun h (_, x) -> hash_with h x)
        (Hashtbl.seeded_hash seed n) fs

let hash v = hash_with 0 v

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Relative tolerance used when comparing summaries that involve floating
   point: the sequential loop and the MapReduce pipeline may reduce in a
   different association order. *)
let float_rel_eps = 1e-6

let rec equal_approx (a : t) (b : t) : bool =
  match (a, b) with
  | Float x, Float y ->
      (match (Float.is_nan x, Float.is_nan y) with
      | true, true -> true
      | false, false ->
          (* the relative tolerance holds between finite values only: with
             an infinite side the scale is infinite too, and every finite
             value would pass *)
          Float.equal x y
          || Float.is_finite x && Float.is_finite y
             &&
             let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
             Float.abs (x -. y) <= float_rel_eps *. scale
      | _ -> false)
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Tuple xs, Tuple ys | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal_approx xs ys
  | Struct (n1, f1), Struct (n2, f2) ->
      String.equal n1 n2
      && List.length f1 = List.length f2
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal_approx v1 v2)
           f1 f2
  | _ -> false

(** Byte-size model used by the cost model (paper §7.4 uses 40 bytes for a
    String, 10 for a Boolean and 28 for a tuple of two Booleans; we match
    those constants). *)
let rec size_of : t -> int = function
  | Int _ -> 12
  | Float _ -> 16
  | Bool _ -> 10
  | Str s -> 24 + String.length s
  | Tuple xs | List xs -> 8 + List.fold_left (fun a x -> a + size_of x) 0 xs
  | Struct (_, fs) -> 8 + List.fold_left (fun a (_, v) -> a + size_of v) 0 fs

let size_of_list (vs : t list) : int =
  List.fold_left (fun a v -> a + size_of v) 0 vs

let rec pp ppf = function
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.float ppf f
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.pf ppf "%S" s
  | Tuple xs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp) xs
  | List xs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:comma pp) xs
  | Struct (n, fs) ->
      Fmt.pf ppf "%s{%a}" n
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string pp))
        fs

(* [to_string]'s hot caller is the search's fingerprint interner
   ([Memo.value_id]), which prints every probe value; keys are grouped
   by [hash] and [equal], never by their printed form, because [%g]
   prints 1234567.0 and 1234568.0 alike and [Int 7] like [Float 7.0].
   Spinning up a formatter per call ([Fmt.str]) costs more than the
   conversion itself, so scalars take a direct path. Scalars render on
   one line regardless of margin, so the bytes are identical to the
   [pp] output ([Fmt.int] is ["%d"], [Fmt.float] is ["%g"], and
   [Printf]'s ["%S"] matches [Format]'s); a property test pins the
   equivalence. Nested values keep the formatter so any future
   pretty-printing tweaks stay in one place. *)
let to_string v =
  match v with
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool true -> "true"
  | Bool false -> "false"
  | Str s ->
      (* printable ASCII without quote/backslash renders under %S as
         itself between quotes; anything else falls back to the stdlib
         escaper *)
      let n = String.length s in
      let plain = ref true in
      for i = 0 to n - 1 do
        let c = s.[i] in
        if c < ' ' || c > '~' || c = '"' || c = '\\' then plain := false
      done;
      if !plain then begin
        let b = Bytes.create (n + 2) in
        Bytes.set b 0 '"';
        Bytes.blit_string s 0 b 1 n;
        Bytes.set b (n + 1) '"';
        Bytes.unsafe_to_string b
      end
      else Printf.sprintf "%S" s
  | Tuple _ | List _ | Struct _ -> Fmt.str "%a" pp v

(* Convenience accessors: raise on type mismatch, which in this codebase
   indicates a bug in type inference upstream. *)
exception Type_error of string

let terr fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt
let as_int = function Int n -> n | v -> terr "expected int, got %a" pp v

let as_float = function
  | Float f -> f
  | Int n -> float_of_int n
  | v -> terr "expected float, got %a" pp v

let as_bool = function Bool b -> b | v -> terr "expected bool, got %a" pp v
let as_str = function Str s -> s | v -> terr "expected string, got %a" pp v
let as_list = function List l -> l | v -> terr "expected list, got %a" pp v

let as_struct = function
  | Struct (n, fs) -> (n, fs)
  | v -> terr "expected struct, got %a" pp v

(* the first field named [name], by [String.equal]: [List.assoc_opt]
   would compare the names with polymorphic [compare] *)
let rec find_field name v = function
  | [] -> terr "no field %s in %a" name pp v
  | (n, x) :: rest -> if String.equal n name then x else find_field name v rest

let field name v =
  let _, fs = as_struct v in
  find_field name v fs
