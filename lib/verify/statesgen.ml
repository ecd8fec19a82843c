module F = Casper_analysis.Fragment
module Value = Casper_common.Value
module Rng = Casper_common.Rng
open Minijava.Ast

type domain = {
  max_outer : int;  (** outer dataset size drawn from 0..max_outer *)
  max_inner : int;  (** matrix columns / inner sizes, 1..max_inner *)
  ints : int list;
  floats : float list;
  strings : string list;
}

let bounded_domain (frag : F.t) : domain =
  let const_ints =
    List.filter_map (function Value.Int n -> Some n | _ -> None)
      frag.constants
  in
  let const_floats =
    List.filter_map (function Value.Float f -> Some f | _ -> None)
      frag.constants
  in
  let const_strs =
    List.filter_map (function Value.Str s -> Some s | _ -> None)
      frag.constants
  in
  {
    max_outer = 3;
    max_inner = 3;
    ints = List.sort_uniq compare ([ 0; 1; 2; 3; 4 ] @ const_ints);
    floats =
      List.sort_uniq compare ([ 0.0; 0.5; 1.0; 2.0 ] @ const_floats);
    strings = List.sort_uniq compare ([ "aa"; "bb" ] @ const_strs);
  }

let full_domain (frag : F.t) : domain =
  let b = bounded_domain frag in
  {
    max_outer = 9;
    max_inner = 4;
    ints =
      List.sort_uniq compare
        (b.ints @ [ -7; -1; 5; 13; 29; 97; -100; 1000 ]);
    floats =
      List.sort_uniq compare
        (b.floats @ [ -3.5; 0.061; 7.25; -0.5; 123.5; 0.001 ]);
    strings = List.sort_uniq compare (b.strings @ [ "cc"; "dd"; "" ]);
  }

let rec gen_value (rng : Rng.t) (dom : domain) (prog : program) (t : ty) :
    Value.t =
  match t with
  | TInt | TLong | TDate -> Value.Int (Rng.pick rng dom.ints)
  | TFloat -> Value.Float (Rng.pick rng dom.floats)
  | TBool -> Value.Bool (Rng.bool rng)
  | TString -> Value.Str (Rng.pick rng dom.strings)
  | TArray t' | TList t' ->
      let n = Rng.int rng (dom.max_inner + 1) in
      Value.List (List.init n (fun _ -> gen_value rng dom prog t'))
  | TMap (k, v) ->
      let n = Rng.int rng (dom.max_inner + 1) in
      Value.List
        (List.init n (fun _ ->
             Value.Tuple
               [ gen_value rng dom prog k; gen_value rng dom prog v ]))
  | TClass c -> (
      match find_class prog c with
      | Some cd ->
          Value.Struct
            ( c,
              List.map
                (fun (ft, f) -> (f, gen_value rng dom prog ft))
                cd.cfields )
      | None -> Value.Struct (c, []))
  | TVoid -> Value.Tuple []

(** Variables that the iteration bound reads (so they must be consistent
    with the generated data dimensions rather than random). *)
let bound_vars (frag : F.t) : (string * [ `Outer | `Inner ]) list =
  match frag.schema with
  | F.SArrays { bound = Var v; _ } -> [ (v, `Outer) ]
  | F.SMatrix { rows; cols; _ } ->
      (match rows with Var v -> [ (v, `Outer) ] | _ -> [])
      @ (match cols with Var v -> [ (v, `Inner) ] | _ -> [])
  | _ -> []

(** Generate one parameter environment for the fragment's method, with
    [outer] outer iteration units. *)
let gen_params (rng : Rng.t) (dom : domain) (prog : program) (frag : F.t)
    ~(outer : int) : Minijava.Interp.env =
  let datasets = F.datasets_of_schema frag.schema in
  let inner = 1 + Rng.int rng dom.max_inner in
  let gen_param (t, name) =
    let v =
      if List.mem name datasets then
        match (frag.schema, t) with
        | F.SMatrix _, (TArray (TArray et) | TList (TList et)) ->
            Value.List
              (List.init outer (fun _ ->
                   Value.List
                     (List.init inner (fun _ -> gen_value rng dom prog et))))
        | _, (TArray et | TList et) ->
            Value.List (List.init outer (fun _ -> gen_value rng dom prog et))
        | _ -> gen_value rng dom prog t
      else
        match List.assoc_opt name (bound_vars frag) with
        | Some `Outer -> Value.Int outer
        | Some `Inner -> Value.Int inner
        | None -> gen_value rng dom prog t
    in
    (name, v)
  in
  List.map gen_param frag.meth.params

let gen_batch ~(seed : int) ~(count : int) (dom : domain) (prog : program)
    (frag : F.t) : Minijava.Interp.env list =
  let rng = Rng.create seed in
  List.init count (fun i ->
      let outer =
        if i = 0 then 0
        else if i = 1 then 1
        else 1 + Rng.int rng dom.max_outer
      in
      gen_params rng dom prog frag ~outer)
