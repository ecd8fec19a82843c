(** Candidate-summary enumeration: traversing a grammar class.

    Expands the production rules of a grammar class into concrete
    summaries, lazily ([Seq.t]) and in roughly increasing structural
    size — pools are size-sorted, so cheap candidates surface first and
    the search is biased towards inexpensive summaries (§4.2).

    Pipeline shapes follow Figure 6's hierarchy:
    - 1 op:  [reduce(data)] (scalar lists), [map(data)] (keyed outputs)
    - 2 ops: [reduce(map(data))] — keyed or global
    - 3 ops: [map(reduce(map(data)))]
    - join fragments: [reduce(map(join(map(d1), map(d2))))] *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module G = Grammar
module Value = Casper_common.Value
module Memo = Casper_ir.Memo
module H = Casper_ir.Hashcons

let seq_of_list = List.to_seq

let ( let* ) s f = Seq.concat_map f s

let vals_list pools ~max_len ty =
  List.filter (fun e -> G.glen pools e <= max_len) (G.exprs_of_ty pools ty)

(* Deduplicated (guard, key, value) emit candidates: two emits that fire
   on the same probes with the same key and value are the same grammar
   production. This is what keeps class traversal tractable.

   The fingerprint is two interned value-cells per probe: [(-1, -1)]
   when the guard does not fire, [(key, value)] cells for key-value
   payloads, [(-2, value)] for plain-value payloads. Two emits share one
   exactly when they print the same on every probe ([fastpath.dedup]
   checks this against a dedup by printed strings). *)
let emit_fingerprint (pools : G.pools) ({ Ir.guard; payload } : Ir.emit) :
    Memo.fp =
  (* every class re-proposes combinations of the same pool components:
     interleave their cached cell arrays *)
  let ps = pools.G.cprobes in
  let fired =
    match guard with
    | None -> fun _ -> true
    | Some g ->
        let f = Memo.fires ps g in
        fun i -> f.(i)
  in
  let key_cell, vc =
    match payload with
    | Ir.KV (k, v) ->
        let kc = Memo.cells ps k in
        ((fun i -> kc.(i)), Memo.cells ps v)
    | Ir.Val v -> ((fun _ -> -2), Memo.cells ps v)
  in
  let n = Array.length vc in
  let a = Array.make (2 * n) (-1) in
  for i = 0 to n - 1 do
    if fired i then (
      a.(2 * i) <- key_cell i;
      a.((2 * i) + 1) <- vc.(i))
  done;
  a

(** Observational dedup of emit candidates, capped at [limit] survivors.
    The cap is applied *during* filtering: once [limit] distinct emits
    have been kept, the remaining candidates are never fingerprinted
    (they could only be dropped — output order is preserved by the
    filter, so capping during and capping after select the same
    emits). *)
let dedupe_emits_seq (pools : G.pools) ?(limit = 512)
    (emits : Ir.emit Seq.t) : Ir.emit list =
  let seen = Memo.Fp_tbl.create 128 in
  let out = ref [] in
  let n = ref 0 in
  let rec go s =
    if !n >= limit then ()
    else
      match s () with
      | Seq.Nil -> ()
      | Seq.Cons (e, rest) ->
          let f = emit_fingerprint pools e in
          if not (Memo.Fp_tbl.mem seen f) then (
            Memo.Fp_tbl.add seen f ();
            out := e :: !out;
            incr n);
          go rest
  in
  go emits;
  List.rev !out

let dedupe_emits (pools : G.pools) ?limit (emits : Ir.emit list) :
    Ir.emit list =
  dedupe_emits_seq pools ?limit (List.to_seq emits)

(** Keyed emit candidates for a collection output. *)
let kv_emits (pools : G.pools) (k : G.klass) ?limit
    ~(key_pool : Ir.expr list) ~(val_pool : Ir.expr list) () : Ir.emit list =
  (* guards outermost (unguarded first), keys innermost, so that the cap
     never starves a later key of its cheap (guard, value) combinations.
     Values are re-ordered by plain grammar length: constants make
     perfectly good values (counting emits [(k, 1)]), unlike keys.
     Combinations are generated lazily so that once the dedup cap is
     reached, the tail is never even constructed. *)
  let val_pool =
    List.sort
      (fun a b -> compare (G.glen pools a, a) (G.glen pools b, b))
      val_pool
  in
  let combos =
    let* g = seq_of_list (G.guards pools ~max_len:k.G.max_len) in
    let* v = seq_of_list val_pool in
    Seq.map
      (fun key -> { Ir.guard = g; payload = Ir.KV (key, v) })
      (seq_of_list key_pool)
  in
  dedupe_emits_seq pools ?limit combos

(** Output-variable IR types. *)
let scalar_out_ty (t : Minijava.Ast.ty) : Ir.ty =
  Casper_analysis.Analyze.ir_ty t

let elem_out_ty (t : Minijava.Ast.ty) : Ir.ty =
  match t with
  | Minijava.Ast.TArray e | Minijava.Ast.TList e ->
      Casper_analysis.Analyze.ir_ty e
  | Minijava.Ast.TMap (_, v) -> Casper_analysis.Analyze.ir_ty v
  | t -> Casper_analysis.Analyze.ir_ty t

let key_out_ty (t : Minijava.Ast.ty) : Ir.ty =
  match t with
  | Minijava.Ast.TArray _ | Minijava.Ast.TList _ -> Ir.TInt
  | Minijava.Ast.TMap (k, _) -> Casper_analysis.Analyze.ir_ty k
  | _ -> Ir.TInt

(* --------------------------------------------------------------- *)
(* Pools for post-reduce map stages (λm2)                           *)

(** Small expression pool over a single bound variable [v] of type [vt]
    plus the fragment's scalars. *)
let post_pool (pools : G.pools) ~(v : string) (vt : Ir.ty) ~(out_ty : Ir.ty)
    : Ir.expr list =
  let hc = pools.G.hc in
  let terminals =
    match vt with
    | Ir.TTuple ts -> List.mapi (fun i _ -> H.tupleget hc (H.var hc v) i) ts
    | _ -> [ H.var hc v ]
  in
  let scalar_terms =
    List.filter_map
      (fun (s, t) ->
        match t with
        | Ir.TInt | Ir.TFloat -> Some (H.var hc s)
        | _ -> None)
      pools.G.scalars
    @ [ H.cint hc 1; H.cint hc 2; H.cfloat hc 1.0 ]
  in
  let arith =
    List.filter G.is_arith (Ir.Add :: Ir.Sub :: Ir.Div :: pools.G.ops)
    |> List.sort_uniq compare
  in
  let layer1 =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun a ->
            List.map (fun b -> H.binop hc op a b) (terminals @ scalar_terms))
          terminals)
      arith
  in
  let all = terminals @ layer1 in
  (* type filter against the expected output type *)
  let tenv =
    { (G.tenv_of pools) with
      Casper_ir.Infer.vars = (v, vt) :: (G.tenv_of pools).Casper_ir.Infer.vars
    }
  in
  let well_typed =
    List.filter
      (fun e ->
        match Casper_ir.Infer.infer tenv e with
        | t -> Ir.ty_equal t out_ty
               || (out_ty = Ir.TFloat && t = Ir.TInt)
        | exception Casper_ir.Infer.Ill_typed _ -> false)
      all
  in
  (* dedupe on synthetic probes for v *)
  let rng = Casper_common.Rng.create 77 in
  let samples = Casper_verify.Verifier.sample_values rng vt ~n:5 in
  (* pair each sample with several distinct base environments so free
     scalars (cols, n, …) vary across probes and dedup stays faithful *)
  let bases =
    match pools.G.probes with
    | [] -> [ [] ]
    | l -> G.cap 4 l
  in
  let probes =
    List.concat_map (fun s -> List.map (fun b -> (v, s) :: b) bases) samples
  in
  G.dedupe pools ~limit:16 probes well_typed

(* --------------------------------------------------------------- *)
(* Shape generators                                                 *)

let mk_map_emits params emits = { Ir.m_params = params; emits }
let param_names pools = List.map fst pools.G.params

(* Construction-time candidate keys: every shape assembles its
   candidates from small pools of already-deduped components, so the
   component ids are computed once per pool element — outside the
   per-candidate product loops — and each candidate's key is the
   interned list of a distinct shape tag followed by those ids (see
   [Hashcons.key_of]).

   Each candidate also carries a family key: the same list without the
   reducer's id, so the candidates of one family differ only in λr. A
   shape without a reducer uses the candidate key: its family is the
   candidate alone. The keyed shape adds one projection key per output,
   [11; i; emit id]: the candidates whose output [i] is emitted by that
   emit (DESIGN.md §16). *)
let emits_ids hc (l : Ir.emit list) : (Ir.emit * int) list =
  List.map (fun e -> (e, H.emit_id hc e)) l

let exprs_ids hc (l : Ir.expr list) : (Ir.expr * int) list =
  List.map (fun e -> (e, H.expr_id hc e)) l

(* reducers all bind the same parameter names, so the body id alone
   identifies one *)
let reducers_ids hc (l : Ir.lam_r list) : (Ir.lam_r * int) list =
  List.map (fun lr -> (lr, H.expr_id hc lr.Ir.r_body)) l

(* --------------------------------------------------------------- *)
(* Items and dead sets                                              *)

type cand = {
  summary : Ir.summary;
  key : int;  (** construction key *)
  family : int;  (** construction key without the reducer id *)
  projs : (string * int) list;
      (** keyed shape: each output variable with its projection key *)
}

(** What the enumerator yields: a built candidate, or [n] consecutive
    candidates that Φ has already refuted, left unbuilt. [cids] are
    their construction keys, for the consumer to skip the blocked ones
    among them as it would skip them one by one. *)
type item = Cand of cand | Bulk of { n : int; cids : int list Lazy.t }

(** One search's refutations, search-wide: Φ only grows, so a key
    refuted once stays refuted. Candidate keys live apart from family
    and projection keys: both are interned int lists, and a family list
    [[6; e1; e2]] is also the candidate list of [[6; e; rid]] whenever an
    emit id equals a reducer id. *)
type dead = {
  cands : (int, unit) Hashtbl.t;  (** refuted candidate keys *)
  scopes : (int, unit) Hashtbl.t;  (** refuted family and projection keys *)
}

let make_dead () : dead =
  { cands = Hashtbl.create 256; scopes = Hashtbl.create 64 }

let scope_dead (dead : dead) ~family ~(projs : (string * int) list) : bool =
  Hashtbl.mem dead.scopes family
  || List.exists (fun (_, p) -> Hashtbl.mem dead.scopes p) projs

let bulk_one cid = Bulk { n = 1; cids = Lazy.from_val [ cid ] }

(* one candidate, built only if neither it nor one of its scopes is
   refuted *)
let one_item (dead : dead) ~key ~family ~projs (build : unit -> Ir.summary) :
    item =
  if Hashtbl.mem dead.cands key || scope_dead dead ~family ~projs then
    bulk_one key
  else Cand { summary = build (); key; family; projs }

(* the members of one family, in reducer order ([key rid] is a member's
   candidate key); once the family or one of its projections is refuted,
   the rest of it is one [Bulk] *)
let family_items (dead : dead) ~family ~projs ~(key : int -> int)
    (build : Ir.lam_r -> Ir.summary) (reducers : (Ir.lam_r * int) list) :
    item Seq.t =
  let rec go rs () =
    match rs with
    | [] -> Seq.Nil
    | (lr, rid) :: rest ->
        if scope_dead dead ~family ~projs then
          Seq.Cons
            ( Bulk
                {
                  n = List.length rs;
                  cids = lazy (List.map (fun (_, rid) -> key rid) rs);
                },
              Seq.empty )
        else
          let cid = key rid in
          let it =
            if Hashtbl.mem dead.cands cid then bulk_one cid
            else Cand { summary = build lr; key = cid; family; projs }
          in
          Seq.Cons (it, go rest)
  in
  go reducers

(** 1 op: global reduce directly over a list of scalar records. *)
let shape_reduce_only (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  match (frag.schema, frag.outputs) with
  | F.SList { elem_ty; _ }, [ (out, _, F.KScalar) ] ->
      let ety = Casper_analysis.Analyze.ir_ty elem_ty in
      (match ety with
      | Ir.TInt | Ir.TFloat | Ir.TBool | Ir.TString ->
          let d = F.primary_dataset frag in
          family_items dead ~family:(H.key_of hc [ 1 ]) ~projs:[]
            ~key:(fun rid -> H.key_of hc [ 1; rid ])
            (fun lr ->
              {
                Ir.pipeline = Ir.Reduce (Ir.Data d, lr);
                bindings = [ (out, Ir.Proj None) ];
              })
            (reducers_ids hc (G.reducers pools ety))
      | _ -> Seq.empty)
  | _ ->
      ignore k;
      Seq.empty

(** 1 op: map only — keyed output rebuilt per record. *)
let shape_map_only (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  match frag.outputs with
  | [ (out, oty, (F.KArray | F.KMap)) ] ->
      let d = F.primary_dataset frag in
      let params = param_names pools in
      let kty = key_out_ty oty and vty = elem_out_ty oty in
      let emits =
        kv_emits pools k
          ~key_pool:(G.cap 8 (vals_list pools ~max_len:k.max_len kty))
          ~val_pool:(vals_list pools ~max_len:k.max_len vty)
          ()
      in
      Seq.map
        (fun (e, eid) ->
          let key = H.key_of hc [ 2; eid ] in
          one_item dead ~key ~family:key ~projs:[] (fun () ->
              {
                Ir.pipeline = Ir.Map (Ir.Data d, mk_map_emits params [ e ]);
                bindings = [ (out, Ir.Whole) ];
              }))
        (seq_of_list (emits_ids hc emits))
  | _ -> Seq.empty

(** Emit-candidate list for one scalar output, observationally deduped
    (guard × value combinations collapse when they behave identically on
    the probes). *)
let scalar_emits (pools : G.pools) (k : G.klass) (out : string)
    (oty : Ir.ty) : Ir.emit list =
  let hc = pools.G.hc in
  (* every emit shares the fixed key [CStr out], so the general emit
     fingerprint collapses to the (guard, value) behaviour — the same
     dedup classes as fingerprinting the value alone *)
  let combos =
    let* g = seq_of_list (G.guards pools ~max_len:k.max_len) in
    Seq.map
      (fun v -> { Ir.guard = g; payload = Ir.KV (H.cstr hc out, v) })
      (seq_of_list (vals_list pools ~max_len:k.max_len oty))
  in
  dedupe_emits_seq pools ~limit:64 combos

(** 2 ops: reduce(map(data)) — keyed by output-variable id. *)
let shape_map_reduce_keyed (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  let scalars =
    List.filter_map
      (fun (v, t, kd) ->
        match kd with F.KScalar -> Some (v, scalar_out_ty t) | _ -> None)
      frag.outputs
  in
  if
    List.length scalars = 0
    || List.length scalars <> List.length frag.outputs
    || List.length scalars > k.max_emits
  then Seq.empty
  else
    let tys = List.sort_uniq compare (List.map snd scalars) in
    match tys with
    | [ vty ] ->
        let d = F.primary_dataset frag in
        let params = param_names pools in
        (* per output: (emit, emit id, projection key) *)
        let per_out =
          List.mapi
            (fun i (o, t) ->
              List.map
                (fun (e, eid) -> (e, eid, H.key_of hc [ 11; i; eid ]))
                (emits_ids hc (scalar_emits pools k o t)))
            scalars
        in
        let reducers = reducers_ids hc (G.reducers pools vty) in
        let key eids rid = H.key_of hc ((3 :: eids) @ [ rid ]) in
        let family picks =
          let emits = List.map (fun (e, _, _) -> e) picks in
          let eids = List.map (fun (_, eid, _) -> eid) picks in
          family_items dead
            ~family:(H.key_of hc (3 :: eids))
            ~projs:(List.map2 (fun (o, _) (_, _, p) -> (o, p)) scalars picks)
            ~key:(key eids)
            (fun lr ->
              {
                Ir.pipeline =
                  Ir.Reduce (Ir.Map (Ir.Data d, mk_map_emits params emits), lr);
                bindings =
                  List.map (fun (o, _) -> (o, Ir.AtKey (Value.Str o))) scalars;
              })
            reducers
        in
        (* every candidate key below a row prefix ([rev_eids], reversed) *)
        let rec keys_below rev_eids = function
          | [] ->
              let eids = List.rev rev_eids in
              List.map (fun (_, rid) -> key eids rid) reducers
          | pool :: rest ->
              List.concat_map
                (fun (_, eid, _) -> keys_below (eid :: rev_eids) rest)
                pool
        in
        (* the cartesian product of the per-output pools, first output
           outermost; [picks] is the row prefix so far, reversed. Once a
           projection in the prefix is refuted, every candidate below it
           is one [Bulk]. *)
        let rec rows picks = function
          | [] -> family (List.rev picks)
          | pool :: rest ->
              let below =
                List.fold_left
                  (fun a p -> a * List.length p)
                  (List.length reducers) rest
              in
              let* pick = seq_of_list pool in
              let picks = pick :: picks in
              if List.exists (fun (_, _, p) -> Hashtbl.mem dead.scopes p) picks
              then
                let rev_eids = List.map (fun (_, eid, _) -> eid) picks in
                Seq.return
                  (Bulk { n = below; cids = lazy (keys_below rev_eids rest) })
              else rows picks rest
        in
        rows [] per_out
    | _ -> Seq.empty (* mixed-type keyed outputs need tuple shapes *)

(** 2 ops: global reduce over plain emitted values (tuple style). *)
let shape_map_reduce_global (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  let scalars =
    List.filter_map
      (fun (v, t, kd) ->
        match kd with F.KScalar -> Some (v, scalar_out_ty t) | _ -> None)
      frag.outputs
  in
  if
    List.length scalars = 0
    || List.length scalars <> List.length frag.outputs
  then Seq.empty
  else
    let d = F.primary_dataset frag in
    let params = param_names pools in
    match scalars with
    | [ (out, oty) ] ->
        let emits =
          List.concat_map
            (fun g ->
              List.map
                (fun v -> { Ir.guard = g; payload = Ir.Val v })
                (vals_list pools ~max_len:k.max_len oty))
            (G.guards pools ~max_len:k.max_len)
          |> dedupe_emits pools
        in
        let reducers = reducers_ids hc (G.reducers pools oty) in
        let* e, eid = seq_of_list (emits_ids hc emits) in
        family_items dead ~family:(H.key_of hc [ 4; eid ]) ~projs:[]
          ~key:(fun rid -> H.key_of hc [ 4; eid; rid ])
          (fun lr ->
            {
              Ir.pipeline =
                Ir.Reduce (Ir.Map (Ir.Data d, mk_map_emits params [ e ]), lr);
              bindings = [ (out, Ir.Proj None) ];
            })
          reducers
    | _ when k.allow_tuples && List.length scalars <= 3 ->
        let slot_pools =
          List.map
            (fun (_, t) ->
              exprs_ids hc (G.cap 10 (vals_list pools ~max_len:k.max_len t)))
            scalars
        in
        let rec cart = function
          | [] -> Seq.return []
          | pool :: rest ->
              let* e = seq_of_list pool in
              Seq.map (fun tl -> e :: tl) (cart rest)
        in
        let vty = Ir.TTuple (List.map snd scalars) in
        let reducers = reducers_ids hc (G.reducers pools vty) in
        let* picks = cart slot_pools in
        let slots = List.map fst picks in
        let sids = List.map snd picks in
        family_items dead ~family:(H.key_of hc (5 :: sids)) ~projs:[]
          ~key:(fun rid -> H.key_of hc ((5 :: sids) @ [ rid ]))
          (fun lr ->
            {
                Ir.pipeline =
                  Ir.Reduce
                    ( Ir.Map
                        ( Ir.Data d,
                          mk_map_emits params
                            [
                              {
                                Ir.guard = None;
                                payload = Ir.Val (Ir.MkTuple slots);
                              };
                            ] ),
                      lr );
                bindings =
                  List.mapi (fun i (o, _) -> (o, Ir.Proj (Some i))) scalars;
              })
          reducers
    | _ -> Seq.empty

(** 2 ops: reduce(map(data)) for a keyed (array/map) output. *)
let shape_map_reduce_collection (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  match frag.outputs with
  | [ (out, oty, (F.KArray | F.KMap)) ] ->
      let d = F.primary_dataset frag in
      let params = param_names pools in
      let kty = key_out_ty oty and vty = elem_out_ty oty in
      let emits =
        emits_ids hc
          (kv_emits pools k ~limit:4096
             ~key_pool:(G.cap 8 (vals_list pools ~max_len:k.max_len kty))
             ~val_pool:(G.cap 14 (vals_list pools ~max_len:k.max_len vty))
             ())
      in
      (* multi-emit bodies (3D Histogram emits one pair per channel):
         unordered combinations from the head of the deduped emit pool *)
      let single = List.map (fun e -> [ e ]) emits in
      let head = G.cap 18 emits in
      let pairs =
        if k.max_emits < 2 then []
        else
          List.concat
            (List.mapi
               (fun i a ->
                 List.filteri (fun j _ -> j > i) head
                 |> List.map (fun b -> [ a; b ]))
               head)
      in
      let triples =
        if k.max_emits < 3 then []
        else
          let h = head in
          List.concat
            (List.mapi
               (fun i a ->
                 List.concat
                   (List.mapi
                      (fun j b ->
                        if j <= i then []
                        else
                          List.filteri (fun l _ -> l > j) h
                          |> List.map (fun c -> [ a; b; c ]))
                      h))
               h)
      in
      let reducers = reducers_ids hc (G.reducers pools vty) in
      let* picks = seq_of_list (single @ pairs @ triples) in
      let body = List.map fst picks in
      let eids = List.map snd picks in
      family_items dead ~family:(H.key_of hc (6 :: eids)) ~projs:[]
        ~key:(fun rid -> H.key_of hc ((6 :: eids) @ [ rid ]))
        (fun lr ->
          {
            Ir.pipeline =
              Ir.Reduce (Ir.Map (Ir.Data d, mk_map_emits params body), lr);
            bindings = [ (out, Ir.Whole) ];
          })
        reducers
  | _ -> Seq.empty

(** 3 ops: map(reduce(map(data))) — keyed, with a post-processing map
    that rewrites each reduced value (row-wise mean's [v / cols]). *)
let shape_map_reduce_map_collection (dead : dead) (frag : F.t)
    (pools : G.pools) (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  match frag.outputs with
  | [ (out, oty, (F.KArray | F.KMap)) ] ->
      let d = F.primary_dataset frag in
      let params = param_names pools in
      let kty = key_out_ty oty and vty = elem_out_ty oty in
      let emits =
        kv_emits pools k ~limit:256
          ~key_pool:(G.cap 6 (vals_list pools ~max_len:k.max_len kty))
          ~val_pool:(G.cap 16 (vals_list pools ~max_len:k.max_len vty))
          ()
      in
      (* the post-map pool depends on the value type alone: built once,
         when the first candidate needs it *)
      let post =
        lazy
          (exprs_ids hc
             (List.filter
                (fun e -> e <> Ir.Var "v")
                (post_pool pools ~v:"v" vty ~out_ty:(elem_out_ty oty))))
      in
      let* e, eid = seq_of_list (emits_ids hc emits) in
      let* lr, rid = seq_of_list (reducers_ids hc (G.reducers pools vty)) in
      (* a family (fixed emit and post-map) is spread over the reducer
         loop, so each member is looked up on its own *)
      Seq.map
        (fun (e2, pid) ->
          one_item dead
            ~key:(H.key_of hc [ 7; eid; rid; pid ])
            ~family:(H.key_of hc [ 7; eid; pid ])
            ~projs:[]
          @@ fun () ->
            {
              Ir.pipeline =
                Ir.Map
                  ( Ir.Reduce
                      ( Ir.Map
                          (Ir.Data d, mk_map_emits params [ e ]),
                        lr ),
                    mk_map_emits [ "k"; "v" ]
                      [
                        {
                          Ir.guard = None;
                          payload = Ir.KV (Ir.Var "k", e2);
                        };
                      ] );
              bindings = [ (out, Ir.Whole) ];
            })
        (seq_of_list (Lazy.force post))
  | _ -> Seq.empty

(** 3 ops: map(reduce(map(data))) with a global tuple reduction and a
    final map that computes each scalar output from the folded tuple
    (Delta's [max - min]). *)
let shape_map_reduce_map_global (dead : dead) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  let scalars =
    List.filter_map
      (fun (v, t, kd) ->
        match kd with F.KScalar -> Some (v, scalar_out_ty t) | _ -> None)
      frag.outputs
  in
  if
    (not k.allow_tuples)
    || List.length scalars = 0
    || List.length scalars <> List.length frag.outputs
  then Seq.empty
  else
    let d = F.primary_dataset frag in
    let params = param_names pools in
    (* fold a pair of identical base expressions, post-process per output *)
    let base_tys =
      List.sort_uniq compare (List.map snd scalars)
      |> List.filter (fun t -> t = Ir.TInt || t = Ir.TFloat)
    in
    let* bty = seq_of_list base_tys in
    let vty = Ir.TTuple [ bty; bty ] in
    (* the post-map pool depends on the base type alone: built once per
       type, when the first candidate needs it *)
    let post_p =
      lazy (exprs_ids hc (G.cap 8 (post_pool pools ~v:"t" vty ~out_ty:bty)))
    in
    let* b, bid =
      seq_of_list (exprs_ids hc (G.cap 8 (vals_list pools ~max_len:k.max_len bty)))
    in
    let* lr, rid =
      seq_of_list
        (reducers_ids hc
           (List.filter
              (fun lr ->
                match lr.Ir.r_body with Ir.MkTuple _ -> true | _ -> false)
              (G.reducers pools vty)))
    in
    let pids = List.map (fun (_, (_, pid)) -> pid) in
    let rec choose_exprs outs =
      match outs with
      | [] -> Seq.return []
      | (o, _) :: rest ->
          let* p = seq_of_list (Lazy.force post_p) in
          Seq.map (fun tl -> (o, p) :: tl) (choose_exprs rest)
    in
    Seq.map
      (fun choices ->
        one_item dead
          ~key:(H.key_of hc (8 :: bid :: rid :: pids choices))
          ~family:(H.key_of hc (8 :: bid :: pids choices))
          ~projs:[]
        @@ fun () ->
          {
            Ir.pipeline =
              Ir.Map
                ( Ir.Reduce
                    ( Ir.Map
                        ( Ir.Data d,
                          mk_map_emits params
                            [
                              {
                                Ir.guard = None;
                                payload = Ir.Val (Ir.MkTuple [ b; b ]);
                              };
                            ] ),
                      lr ),
                  mk_map_emits [ "t" ]
                    (List.map
                       (fun (o, (e, _)) ->
                         { Ir.guard = None; payload = Ir.KV (Ir.CStr o, e) })
                       choices) );
            bindings =
              List.map (fun (o, _) -> (o, Ir.AtKey (Value.Str o))) choices;
          })
      (choose_exprs scalars)

(* --------------------------------------------------------------- *)
(* Join shapes                                                      *)

let rec subst hc (m : (string * Ir.expr) list) (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Var v -> ( match List.assoc_opt v m with Some e' -> e' | None -> e)
  | Ir.CInt _ | Ir.CFloat _ | Ir.CBool _ | Ir.CStr _ -> e
  | Ir.Unop (op, a) -> H.unop hc op (subst hc m a)
  | Ir.Binop (op, a, b) -> H.binop hc op (subst hc m a) (subst hc m b)
  | Ir.Call (f, args) -> H.call hc f (List.map (subst hc m) args)
  | Ir.MkTuple es -> H.mktuple hc (List.map (subst hc m) es)
  | Ir.TupleGet (a, i) -> H.tupleget hc (subst hc m a) i
  | Ir.Field (a, f) -> H.field hc (subst hc m a) f
  | Ir.If (a, b, c) -> H.ite hc (subst hc m a) (subst hc m b) (subst hc m c)

(** Join-key candidates: equality conditions in the body that compare an
    [x1]-only expression with an [x2]-only expression, plus same-typed
    field pairs. *)
let join_keys (prog : Minijava.Ast.program) (frag : F.t) (pools : G.pools) :
    (Ir.expr * Ir.expr) list =
  match frag.schema with
  | F.SJoin { x1; x2; _ } ->
      let lift1 = Lift.lift frag prog in
      let from_body =
        Minijava.Ast.fold_stmts
          ~expr:(fun acc e ->
            match e with
            | Minijava.Ast.Binop (Minijava.Ast.Eq, a, b) -> (
                match (lift1 a, lift1 b) with
                | Some a', Some b' ->
                    let va = Ir.expr_vars a' and vb = Ir.expr_vars b' in
                    if
                      List.mem x1 va && (not (List.mem x2 va))
                      && List.mem x2 vb
                      && not (List.mem x1 vb)
                    then (a', b') :: acc
                    else if
                      List.mem x2 va && (not (List.mem x1 va))
                      && List.mem x1 vb
                      && not (List.mem x2 vb)
                    then (b', a') :: acc
                    else acc
                | _ -> acc)
            | _ -> acc)
          ~stmt:(fun acc _ -> acc)
          [] frag.body
      in
      let fields_of v =
        match List.assoc_opt v pools.G.params with
        | Some (Ir.TRecord name) -> (
            match List.assoc_opt name pools.G.structs with
            | Some fs ->
                List.filter_map
                  (fun (f, t) ->
                    match t with
                    | Ir.TInt | Ir.TString | Ir.TDate ->
                        Some (Ir.Field (Ir.Var v, f), t)
                    | _ -> None)
                  fs
            | None -> [])
        | _ -> []
      in
      let pairs =
        List.concat_map
          (fun (e1, t1) ->
            List.filter_map
              (fun (e2, t2) ->
                if Ir.ty_equal t1 t2 then Some (e1, e2) else None)
              (fields_of x2))
          (fields_of x1)
      in
      List.sort_uniq compare (from_body @ G.cap 12 pairs)
  | _ -> []

(** Join pipelines: reduce(map(join(map(d1), map(d2)))). Scalar outputs
    keyed by variable id; map outputs keyed by an expression over the
    joined pair. *)
let shape_join (dead : dead) (prog : Minijava.Ast.program) (frag : F.t)
    (pools : G.pools) (k : G.klass) : item Seq.t =
  let hc = pools.G.hc in
  match frag.schema with
  | F.SJoin { d1; x1; d2; x2; _ } ->
      let keys = join_keys prog frag pools in
      if List.is_empty keys then Seq.empty
      else
        let keys =
          List.map (fun (k1, k2) -> (k1, k2, H.expr_id hc k1, H.expr_id hc k2)) keys
        in
        let m =
          [
            (x1, Ir.TupleGet (Ir.Var "p", 0));
            (x2, Ir.TupleGet (Ir.Var "p", 1));
          ]
        in
        (* probes for the joined stage: p = (x1, x2) *)
        let joined_probes =
          List.map
            (fun env ->
              let get v =
                match List.assoc_opt v env with
                | Some x -> x
                | None -> Value.Tuple []
              in
              ("p", Value.Tuple [ get x1; get x2 ]) :: env)
            pools.G.probes
        in
        let substituted_harvested = Hashtbl.create 32 in
        Hashtbl.iter
          (fun e () -> Hashtbl.replace substituted_harvested (subst hc m e) ())
          pools.G.harvested;
        let keep e = Hashtbl.mem substituted_harvested e in
        let size e = if keep e then 1 else Ir.expr_size e in
        let lift_pool pool =
          G.dedupe pools ~keep ~size joined_probes (List.map (subst hc m) pool)
        in
        let ints = lift_pool pools.G.ints
        and floats = lift_pool pools.G.floats
        and bools = lift_pool pools.G.bools in
        let val_pool = function
          | Ir.TInt | Ir.TDate -> ints
          | Ir.TFloat -> floats
          | Ir.TBool -> bools
          | _ -> []
        in
        let scalars =
          List.filter_map
            (fun (v, t, kd) ->
              match kd with
              | F.KScalar -> Some (v, scalar_out_ty t)
              | _ -> None)
            frag.outputs
        in
        let guards_of bools =
          (None, -1)
          :: List.map
               (fun (b, i) -> (Some b, i))
               (exprs_ids hc (G.cap 12 bools))
        in
        (match scalars with
        | [ (out, oty) ] ->
            let* key1, key2, k1id, k2id = seq_of_list keys in
            let* g, gid = seq_of_list (guards_of bools) in
            let* v, vid = seq_of_list (exprs_ids hc (G.cap 16 (val_pool oty))) in
            family_items dead
              ~family:(H.key_of hc [ 9; k1id; k2id; gid; vid ])
              ~projs:[]
              ~key:(fun rid -> H.key_of hc [ 9; k1id; k2id; gid; vid; rid ])
              (fun lr ->
                let core =
                  Ir.Join
                    ( Ir.Map
                        ( Ir.Data d1,
                          mk_map_emits [ x1 ]
                            [
                              {
                                Ir.guard = None;
                                payload = Ir.KV (key1, Ir.Var x1);
                              };
                            ] ),
                      Ir.Map
                        ( Ir.Data d2,
                          mk_map_emits [ x2 ]
                            [
                              {
                                Ir.guard = None;
                                payload = Ir.KV (key2, Ir.Var x2);
                              };
                            ] ) )
                in
                {
                  Ir.pipeline =
                    Ir.Reduce
                      ( Ir.Map
                          ( core,
                            mk_map_emits [ "k"; "p" ]
                              [
                                {
                                  Ir.guard = g;
                                  payload = Ir.KV (Ir.CStr out, v);
                                };
                              ] ),
                        lr );
                  bindings = [ (out, Ir.AtKey (Value.Str out)) ];
                })
              (reducers_ids hc (G.reducers pools oty))
        | _ -> (
            match frag.outputs with
            | [ (out, oty, (F.KMap | F.KArray)) ] ->
                let vty = elem_out_ty oty in
                let kty = key_out_ty oty in
                let kpool =
                  match kty with
                  | Ir.TInt | Ir.TDate -> ints
                  | Ir.TString -> lift_pool pools.G.strings
                  | _ -> []
                in
                let* key1, key2, k1id, k2id = seq_of_list keys in
                let* okey, okid = seq_of_list (exprs_ids hc (G.cap 8 kpool)) in
                let* g, gid = seq_of_list (guards_of bools) in
                let* v, vid =
                  seq_of_list (exprs_ids hc (G.cap 16 (val_pool vty)))
                in
                family_items dead
                  ~family:(H.key_of hc [ 10; k1id; k2id; okid; gid; vid ])
                  ~projs:[]
                  ~key:(fun rid ->
                    H.key_of hc [ 10; k1id; k2id; okid; gid; vid; rid ])
                  (fun lr ->
                    let core =
                      Ir.Join
                        ( Ir.Map
                            ( Ir.Data d1,
                              mk_map_emits [ x1 ]
                                [
                                  {
                                    Ir.guard = None;
                                    payload = Ir.KV (key1, Ir.Var x1);
                                  };
                                ] ),
                          Ir.Map
                            ( Ir.Data d2,
                              mk_map_emits [ x2 ]
                                [
                                  {
                                    Ir.guard = None;
                                    payload = Ir.KV (key2, Ir.Var x2);
                                  };
                                ] ) )
                    in
                    {
                      Ir.pipeline =
                        Ir.Reduce
                          ( Ir.Map
                              ( core,
                                mk_map_emits [ "k"; "p" ]
                                  [
                                    {
                                      Ir.guard = g;
                                      payload = Ir.KV (okey, v);
                                    };
                                  ] ),
                            lr );
                      bindings = [ (out, Ir.Whole) ];
                    })
                  (reducers_ids hc (G.reducers pools vty))
            | _ -> Seq.empty))
        |> fun s ->
        ignore k;
        s
  | _ -> Seq.empty

(* --------------------------------------------------------------- *)

(** All candidates of one grammar class, cheapest shapes first, each
    with its construction key, family key and projection keys. Before
    building a candidate, a shape asks [dead] whether Φ has refuted it or
    one of its scopes; refuted candidates are yielded as [Bulk] items
    instead, in enumeration order. [dead] must only grow while the
    sequence is consumed.

    Shapes are thunks: a shape's emit pools (an eager, possibly large
    construction) are only built when enumeration actually reaches it.
    [stop] is the consumer's own stop condition (budget exhausted or
    [max_solutions] saturated); once it fires, remaining shapes are
    pruned without being built. Order-preserving by construction: the
    consumer stops consuming at exactly the point [stop] becomes true,
    so the pruned tail was unreachable anyway. *)
let candidates ?(stop = fun () -> false) ~(dead : dead)
    (prog : Minijava.Ast.program) (frag : F.t) (pools : G.pools)
    (k : G.klass) : item Seq.t =
  let shapes : (unit -> item Seq.t) list =
    match frag.schema with
    | F.SJoin _ -> [ (fun () -> shape_join dead prog frag pools k) ]
    | _ ->
        (if k.max_ops >= 1 then
           [
             (fun () -> shape_reduce_only dead frag pools k);
             (fun () -> shape_map_only dead frag pools k);
           ]
         else [])
        @ (if k.max_ops >= 2 then
             [
               (fun () -> shape_map_reduce_keyed dead frag pools k);
               (fun () -> shape_map_reduce_global dead frag pools k);
               (fun () -> shape_map_reduce_collection dead frag pools k);
             ]
           else [])
        @
        if k.max_ops >= 3 then
          [
            (fun () -> shape_map_reduce_map_collection dead frag pools k);
            (fun () -> shape_map_reduce_map_global dead frag pools k);
          ]
        else []
  in
  let rec chain fs () =
    match fs with
    | [] -> Seq.Nil
    | f :: rest -> if stop () then Seq.Nil else Seq.append (f ()) (chain rest) ()
  in
  chain shapes
