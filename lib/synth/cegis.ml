(** Casper's search algorithm for program summaries (paper Figure 5).

    [synthesize] is the CEGIS inner loop: generate a candidate consistent
    with the counter-example set Φ, bounded-model-check it, refine Φ on
    failure. [find_summary] is the outer loop: walk the incremental
    grammar hierarchy, send bounded-verified candidates to the full
    verifier, block both verified summaries (Δ) and verifier failures
    (Ω) from the search space so the search makes forward progress
    (§4.1), and return every verified summary of the first class that
    yields one.

    One implementation note: the paper restarts the synthesizer after
    each blocked candidate; we continue a deterministic enumeration past
    the blocked candidate instead, which visits the same candidates in
    the same order minus the blocked set — the observable behaviour of
    "restart with grammar G − Ω − Δ" without re-enumerating the
    prefix.

    No candidate is judged twice on the same evidence, so the search
    keeps no verdicts (DESIGN.md §16): Φ's refutations go to the dead
    sets the enumerator reads, and a candidate a verifier judged is
    blocked or refuted by its own counter-example. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module G = Grammar
module Verifier = Casper_verify.Verifier
module Statesgen = Casper_verify.Statesgen
module Vc = Casper_vcgen.Vc
module Value = Casper_common.Value
module Memo = Casper_ir.Memo
module Obs = Casper_obs.Obs

type config = {
  incremental : bool;  (** false = Table 3's flat-grammar ablation *)
  max_candidates : int;  (** search budget — the 90-minute-timeout proxy *)
  max_solutions : int;  (** stop collecting after this many verified *)
  explore_all : bool;
      (** keep climbing the class hierarchy even after a class yields
          verified summaries (used to collect every shape of solution
          for dynamic tuning, §7.4) *)
}

let default_config =
  {
    incremental = true;
    max_candidates = 200_000;
    max_solutions = 24;
    explore_all = false;
  }

type solution = {
  summary : Ir.summary;
  klass : int;
  comm_assoc : bool;
      (** every reduction in the pipeline is commutative-associative *)
  static_cost : float;
}

type stats = {
  candidates_tried : int;
  cegis_iterations : int;
  tp_failures : int;  (** full-verifier rejections, Table 2 *)
  classes_explored : int;
  elapsed_s : float;
  timed_out : bool;
}

type outcome = {
  solutions : solution list;  (** verified, cost-sorted *)
  stats : stats;
}

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)

type search_state = {
  mutable phi_prepared : Verifier.prepared list;
      (** the counter-example states Φ, prepared, newest first *)
  dead : Enumerate.dead;
      (** the keys Φ has refuted, search-wide; the enumerator reads them
          to leave refuted candidates unbuilt *)
  mutable unbuilt : int;  (** candidates counted from [Bulk] items *)
  blocked : (int, unit) Hashtbl.t;
      (** Ω ∪ Δ, by the construction key each candidate was enumerated
          under (see [Enumerate]) *)
  mutable tried : int;
  mutable iters : int;
  mutable tp_fail : int;
  budget : int;
}

let add_phi (st : search_state) prog frag (state : Minijava.Interp.env) :
    unit =
  st.phi_prepared <- Verifier.prepare_one prog frag state :: st.phi_prepared

let make_state ?(phi = []) prog frag ~budget : search_state =
  let st =
    {
      phi_prepared = [];
      dead = Enumerate.make_dead ();
      unbuilt = 0;
      blocked = Hashtbl.create 64;
      tried = 0;
      iters = 0;
      tp_fail = 0;
      budget;
    }
  in
  (* prepend in reverse so Φ ends up in the given order *)
  List.iter (add_phi st prog frag) (List.rev phi);
  st

let dead (st : search_state) : Enumerate.dead = st.dead

(* Ω ∪ Δ insertion, by construction key *)
let block (st : search_state) (cid : int) : unit =
  Hashtbl.replace st.blocked cid ()

(* Record that Φ refuted candidate [c]. A refutation reached before any
   λr ran refutes its whole family too, and, when it names an output,
   that output's projection ([Vc.check_prepared], DESIGN.md §16). *)
let refute (st : search_state) (c : Enumerate.cand) ~lr_ran
    ~(output : string option) : unit =
  let d = st.dead in
  Hashtbl.replace d.cands c.key ();
  if not lr_ran then (
    Hashtbl.replace d.scopes c.family ();
    match Option.bind output (fun o -> List.assoc_opt o c.projs) with
    | Some p -> Hashtbl.replace d.scopes p ()
    | None -> ())

(* The Φ check: the walk order and early exit of [Verifier.check_batch]
   over Φ, newest state first, with the refutation kept in the dead
   sets. A candidate that comes back is refuted by a state newer than
   every state it passed (DESIGN.md §16), so passes are not kept. *)
let holds_on_phi (st : search_state) frag (c : Enumerate.cand) : bool =
  List.for_all
    (fun p ->
      match Verifier.check_prepared_one frag c.summary p with
      | Verifier.Passes -> true
      | Verifier.Refuted { lr_ran; output } ->
          refute st c ~lr_ran ~output;
          false)
    st.phi_prepared

(** Figure 5 lines 1–8: find the next candidate in [cands] that survives
    Φ and bounded model checking. [bounded] is the pre-generated bounded
    batch shared by every candidate of this search.

    A [Bulk] item stands for [n] candidates Φ has already refuted: it
    counts as [n] tried candidates minus the blocked ones among them,
    exactly what trying them one by one would count, and is capped at
    the budget like them. *)
let synthesize (st : search_state) prog frag ~(obs : Obs.ctx)
    ~(bounded : Verifier.prepared list Lazy.t)
    (cands : Enumerate.item Seq.t) :
    (Enumerate.cand * Enumerate.item Seq.t) option =
  (* counters are batched per round — one add at exit instead of one per
     candidate — to keep enabled-tracing overhead off the search's hot
     path; the totals are identical *)
  let tried0 = st.tried and iters0 = st.iters in
  let record r =
    if st.tried > tried0 then Obs.add obs "candidates" (st.tried - tried0);
    if st.iters > iters0 then
      Obs.add obs "cegis_iterations" (st.iters - iters0);
    r
  in
  let count_bulk n cids =
    st.unbuilt <- st.unbuilt + n;
    let blocked =
      if Hashtbl.length st.blocked = 0 then 0
      else
        List.fold_left
          (fun a cid -> if Hashtbl.mem st.blocked cid then a + 1 else a)
          0 (Lazy.force cids)
    in
    st.tried <- min st.budget (st.tried + n - blocked)
  in
  let bounded_verdict (c : Enumerate.cand) : Verifier.outcome =
    Obs.span obs "bounded-verify" @@ fun () ->
    Verifier.check_prepared_batch frag c.summary (Lazy.force bounded)
  in
  let rec go (s : Enumerate.item Seq.t) =
    if st.tried >= st.budget then None
    else
      match s () with
      | Seq.Nil -> None
      | Seq.Cons (Enumerate.Bulk { n; cids }, rest) ->
          count_bulk n cids;
          go rest
      | Seq.Cons (Enumerate.Cand c, rest) ->
          if Hashtbl.mem st.blocked c.key then go rest
          else (
            st.tried <- st.tried + 1;
            if not (holds_on_phi st frag c) then go rest
            else (
              st.iters <- st.iters + 1;
              match bounded_verdict c with
              | Verifier.Valid -> Some (c, rest)
              | Verifier.Counterexample phi_state ->
                  add_phi st prog frag phi_state;
                  go rest
              | Verifier.Invalid_summary _ ->
                  block st c.key;
                  go rest))
  in
  record (go cands)

(* ------------------------------------------------------------------ *)

let reduce_nodes (s : Ir.summary) : (Ir.node * Ir.lam_r) list =
  let rec go acc = function
    | Ir.Data _ -> acc
    | Ir.Map (n, _) -> go acc n
    | Ir.Reduce (n, lr) -> go ((n, lr) :: acc) n
    | Ir.Join (a, b) -> go (go acc a) b
  in
  go [] s.pipeline

let tenv_of_frag prog (frag : F.t) : Casper_ir.Infer.tenv =
  {
    Casper_ir.Infer.vars =
      List.map
        (fun (v, t) -> (v, Casper_analysis.Analyze.ir_ty t))
        frag.input_scalars;
    structs = Casper_analysis.Analyze.struct_table prog;
  }

(** Is every reduction in the summary commutative-associative? Drives
    [reduceByKey] vs [groupByKey] in the generated source (§6.3). *)
let summary_comm_assoc prog (frag : F.t) (s : Ir.summary) : bool =
  let tenv = tenv_of_frag prog frag in
  let record_ty = Lift.record_ty_of frag in
  List.for_all
    (fun (src, lr) -> Casper_cost.Cost.reduce_comm_assoc tenv record_ty src lr)
    (reduce_nodes s)

let static_cost prog (frag : F.t) (s : Ir.summary) : float =
  Casper_cost.Cost.cost_of_summary (tenv_of_frag prog frag)
    (Lift.record_ty_of frag)
    (fun _ -> 1_000_000.0)
    (Casper_cost.Cost.static_estimator ~guard_prob:0.5 ())
    s

(* verified summaries, with the grammar class each was found in, as
   solutions sorted by static cost *)
let rank prog frag (verified : (Ir.summary * int) list) : solution list =
  List.map
    (fun (summary, klass) ->
      {
        summary;
        klass;
        comm_assoc = summary_comm_assoc prog frag summary;
        static_cost = static_cost prog frag summary;
      })
    verified
  |> List.sort (fun a b -> Float.compare a.static_cost b.static_cost)

(* ------------------------------------------------------------------ *)

(** Figure 5 lines 10–24: the full search. *)
let rec find_summary ?(obs = Obs.null) ?(config = default_config)
    (prog : Minijava.Ast.program) (frag : F.t) : outcome =
  let t0 = Obs.now obs in
  (* the search's tables: its interner and fingerprint cells live in
     the pools, built by the class loop (a fragment solved by
     decomposition never pays for them) and freed with the search *)
  let pools =
    lazy
      (Obs.span obs "grammar" (fun () ->
           G.build prog frag))
  in
  let finish ~classes ~timed_out st solutions =
    let hits, misses =
      if Lazy.is_val pools then
        let c = (Lazy.force pools).G.cprobes.Memo.ps_counts in
        (c.Memo.cell_hits, c.Memo.cell_misses)
      else (0, 0)
    in
    Obs.add obs "memo_cell_hits" hits;
    Obs.add obs "memo_cell_misses" misses;
    Obs.add obs "candidates_unbuilt" st.unbuilt;
    Obs.add obs "blocked_set" (Hashtbl.length st.blocked);
    let solutions = rank prog frag solutions in
    {
      solutions;
      stats =
        {
          candidates_tried = st.tried;
          cegis_iterations = st.iters;
          tp_failures = st.tp_fail;
          classes_explored = classes;
          elapsed_s = Obs.now obs -. t0;
          timed_out;
        };
    }
  in
  Obs.span obs ~args:[ ("fragment", frag.F.frag_id) ] "synthesis" @@ fun () ->
  match frag.unsupported with
  | Some _ ->
      finish ~classes:0 ~timed_out:false (make_state prog frag ~budget:0) []
  | None ->
      let klasses =
        if config.incremental then G.classes frag else [ G.flat_class frag ]
      in
      let st =
        make_state
          ~phi:(Verifier.states Verifier.Phi prog frag)
          prog frag ~budget:config.max_candidates
      in
      (* the bounded batch every candidate of this search is checked
         against *)
      let bounded = lazy (Verifier.prepare_states Verifier.Bounded prog frag) in
      let full_prepared =
        lazy (Verifier.prepare_states Verifier.Full prog frag)
      in
      let delta = ref [] in
      (* once the budget or solution quota is hit, candidate shapes not
         yet forced can be skipped wholesale: the consumer below stops
         under exactly this condition before pulling another element *)
      let stop () =
        st.tried >= st.budget || List.length !delta >= config.max_solutions
      in
      let rec class_loop classes_done = function
        | [] -> finish ~classes:classes_done ~timed_out:false st !delta
        | k :: rest ->
            (* force the pools outside the class span so the grammar
               span sits directly under "synthesis" *)
            let pools_v = Lazy.force pools in
            let verdict =
              Obs.span obs
                ~args:[ ("class", string_of_int k.G.k_id) ]
                "class"
              @@ fun () ->
              let cands =
                Enumerate.candidates ~stop ~dead:st.dead prog frag pools_v k
              in
              let rec inner cands =
                if
                  st.tried >= st.budget
                  || List.length !delta >= config.max_solutions
                then `Stop
                else
                  match
                    Obs.span obs "round" (fun () ->
                        synthesize st prog frag ~obs ~bounded cands)
                  with
                  | None -> `Exhausted
                  | Some (c, cands_rest) ->
                      block st c.key;
                      (match
                         Obs.span obs "full-verify" (fun () ->
                             Verifier.check_prepared_batch frag c.summary
                               (Lazy.force full_prepared))
                       with
                      | Verifier.Valid ->
                          delta := (c.summary, k.G.k_id) :: !delta
                      | Verifier.Counterexample phi_state ->
                          (* theorem-prover rejection: block and refine Φ so
                             related candidates die in the inner loop *)
                          st.tp_fail <- st.tp_fail + 1;
                          Obs.add obs "tp_failures" 1;
                          add_phi st prog frag phi_state
                      | Verifier.Invalid_summary _ ->
                          st.tp_fail <- st.tp_fail + 1;
                          Obs.add obs "tp_failures" 1);
                      inner cands_rest
              in
              inner cands
            in
            (match verdict with
            | `Stop ->
                finish ~classes:(classes_done + 1)
                  ~timed_out:(st.tried >= st.budget && List.is_empty !delta)
                  st !delta
            | `Exhausted ->
                if (not config.explore_all) && not (List.is_empty !delta)
                then
                  finish ~classes:(classes_done + 1) ~timed_out:false st
                    !delta
                else class_loop (classes_done + 1) rest)
      in
      let scalar_only =
        List.for_all (fun (_, _, k) -> k = F.KScalar) frag.outputs
      in
      if config.incremental && scalar_only && List.length frag.outputs >= 3
      then
        match decompose_multi_output ~obs ~config prog frag with
        | Some oc -> oc
        | None -> class_loop 0 klasses
      else class_loop 0 klasses

(** Decomposed search for fragments with many scalar outputs: find a
    keyed summary per output independently, then merge the emits of
    solutions that share the same reducer into one pipeline and re-run
    full verification on the merged summary. Sketch solves such
    fragments monolithically through constraint propagation; for an
    enumerative synthesizer this factorization reaches the same
    summaries without the cartesian blow-up. The merged result is
    checked end-to-end, so soundness is unaffected. *)
and decompose_multi_output ~(obs : Obs.ctx) ~(config : config) prog
    (frag : F.t) : outcome option =
  let sub_config =
    {
      config with
      max_candidates = config.max_candidates / List.length frag.outputs;
      max_solutions = 6;
    }
  in
  let t0 = Obs.now obs in
  let subs =
    List.map
      (fun out ->
        let frag_o = { frag with F.outputs = [ out ] } in
        (out, find_summary ~obs ~config:sub_config prog frag_o))
      frag.outputs
  in
  let tried =
    List.fold_left
      (fun a (_, (o : outcome)) -> a + o.stats.candidates_tried)
      0 subs
  and iters =
    List.fold_left
      (fun a (_, (o : outcome)) -> a + o.stats.cegis_iterations)
      0 subs
  and tp =
    List.fold_left
      (fun a (_, (o : outcome)) -> a + o.stats.tp_failures)
      0 subs
  in
  (* keyed single-emit solutions per output, indexed by reducer text *)
  let keyed_of (s : solution) :
      (string (* λr *) * Ir.emit * string (* var *)) option =
    match s.summary with
    | {
     Ir.pipeline = Ir.Reduce (Ir.Map (Ir.Data _, { Ir.emits = [ e ]; _ }), lr);
     bindings = [ (v, Ir.AtKey _) ];
    } ->
        Some (Fmt.str "%a" Ir.pp_lam_r lr, e, v)
    | _ -> None
  in
  let tables =
    List.map
      (fun ((v, _, _), (o : outcome)) ->
        ( v,
          List.filter_map
            (fun s ->
              match keyed_of s with
              | Some (lr_key, e, _) -> Some (lr_key, (e, s))
              | None -> None)
            o.solutions ))
      subs
  in
  if List.exists (fun (_, l) -> List.is_empty l) tables then None
  else
    (* reducers available for every output *)
    let common =
      match tables with
      | [] -> []
      | (_, first) :: rest ->
          List.filter
            (fun (lrk, _) ->
              List.for_all (fun (_, l) -> List.mem_assoc lrk l) rest)
            first
          |> List.map fst |> List.sort_uniq String.compare
    in
    let merged_candidates =
      List.filter_map
        (fun lrk ->
          let emits_and_sols =
            List.map (fun (_, l) -> List.assoc lrk l) tables
          in
          let emits = List.map fst emits_and_sols in
          match List.map snd emits_and_sols with
          | s0 :: _ -> (
              match s0.summary.Ir.pipeline with
              | Ir.Reduce (Ir.Map (Ir.Data d, lm0), lr) ->
                  Some
                    {
                      Ir.pipeline =
                        Ir.Reduce
                          ( Ir.Map
                              (Ir.Data d, { lm0 with Ir.emits }),
                            lr );
                      bindings =
                        List.map
                          (fun (v, _) -> (v, Ir.AtKey (Value.Str v)))
                          tables;
                    }
              | _ -> None)
          | [] -> None)
        common
    in
    let verified =
      let prepared = lazy (Verifier.prepare_states Verifier.Full prog frag) in
      let valid s =
        match Verifier.check_prepared_batch frag s (Lazy.force prepared) with
        | Verifier.Valid -> true
        | _ -> false
      in
      List.filter
        (fun s -> Obs.span obs "full-verify" (fun () -> valid s))
        merged_candidates
    in
    match verified with
    | [] -> None
    | _ ->
        let solutions = rank prog frag (List.map (fun s -> (s, 4)) verified) in
        Some
          {
            solutions;
            stats =
              {
                candidates_tried = tried;
                cegis_iterations = iters;
                tp_failures = tp;
                classes_explored = List.length frag.outputs;
                elapsed_s = Obs.now obs -. t0;
                timed_out = false;
              };
          }
