(** The pipeline observability substrate: hierarchical spans, integer
    counters, and Chrome [trace_event] export.

    One {!ctx} is threaded through the whole pipeline — program
    analysis, grammar generation, the CEGIS rounds, bounded and full
    verification, code generation, the engine and the session's job
    queue — so a single trace file shows a workload end to end. Time comes from
    an injectable {!clock}: the monotonic wall clock by default, a
    seeded virtual clock under test/difftest so trace shapes (and the
    synthesizer's [elapsed_s]) are deterministic and goldens stay
    byte-stable.

    Disabled contexts ({!null}) are cheap no-ops: every operation starts
    with one flag check and touches nothing else, so instrumentation can
    stay unconditionally in place on hot paths (the <2% overhead budget
    the [obs.overhead] test enforces).

    Only the domain that created a context writes to it. Work that runs
    on another domain records into a {!fork} of the context, which its
    owner grafts back once the work has finished. *)

module J = Casper_common.Jsonout
module Rng = Casper_common.Rng

type clock = unit -> float

let wall_clock : clock = Unix.gettimeofday

let virtual_clock ?(seed = 0) () : clock =
  (* deterministic, strictly increasing, with seeded pseudo-random
     sub-millisecond steps so durations look organic in a viewer; the
     mutex makes reads safe from the forks of a context, which share
     its clock (the sequence of ticks then depends on scheduling, but
     virtual-clocked contexts are only required to be byte-stable when
     one domain records, where the lock is uncontended and the sequence
     is exactly the historical one) *)
  let rng = Rng.create (seed + 7919) in
  let m = Mutex.create () in
  let t = ref 0.0 in
  fun () ->
    Mutex.protect m (fun () ->
        let v = !t in
        t := v +. 1e-6 +. (Rng.float rng *. 1e-3);
        v)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type node = {
  name : string;
  track : string;
  t0 : float;
  mutable t1 : float;
  args : (string * string) list;
  mutable counters : (string * int) list;  (** insertion order *)
  mutable rev_children : node list;
}

type ctx = {
  on : bool;
  clock : clock;
  root : node;
  lock : Mutex.t;  (** guards totals *)
  mutable stack : node list;  (** open spans, innermost first; ends at root *)
  totals : (string, int) Hashtbl.t;
}

let make_node ~track ~t0 ?(args = []) name =
  { name; track; t0; t1 = t0; args; counters = []; rev_children = [] }

let default_track = "pipeline"

let null : ctx =
  {
    on = false;
    clock = wall_clock;
    root = make_node ~track:default_track ~t0:0.0 "root";
    lock = Mutex.create ();
    stack = [];
    totals = Hashtbl.create 1;
  }

let create ?(clock = wall_clock) () : ctx =
  let root = make_node ~track:default_track ~t0:(clock ()) "root" in
  {
    on = true;
    clock;
    root;
    lock = Mutex.create ();
    stack = [ root ];
    totals = Hashtbl.create 64;
  }

let enabled c = c.on
let now c = c.clock ()

let span c ?(args = []) (name : string) (f : unit -> 'a) : 'a =
  if not c.on then f ()
  else begin
    let parent = match c.stack with p :: _ -> p | [] -> c.root in
    let n = make_node ~track:parent.track ~t0:(c.clock ()) ~args name in
    parent.rev_children <- n :: parent.rev_children;
    c.stack <- n :: c.stack;
    Fun.protect
      ~finally:(fun () ->
        n.t1 <- c.clock ();
        (* pop back to this span even if an inner span escaped via an
           exception without unwinding cleanly *)
        let rec pop = function
          | top :: rest when top == n -> c.stack <- rest
          | _ :: rest -> pop rest
          | [] -> c.stack <- [ c.root ]
        in
        pop c.stack)
      f
  end

let span_at c ~(track : string) ?(args = []) ~(t0 : float) ~(t1 : float)
    (name : string) : unit =
  if c.on then begin
    let parent = match c.stack with p :: _ -> p | [] -> c.root in
    let n = make_node ~track ~t0 ~args name in
    n.t1 <- t1;
    parent.rev_children <- n :: parent.rev_children
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

let rec bump assoc key d =
  match assoc with
  | [] -> [ (key, d) ]
  | (k, v) :: rest ->
      if String.equal k key then (k, v + d) :: rest
      else (k, v) :: bump rest key d

(** Add [d] to counter [key]: on the innermost open span and on the
    flat per-run totals. *)
let add c (key : string) (d : int) : unit =
  if c.on then begin
    (match c.stack with
    | top :: _ -> top.counters <- bump top.counters key d
    | [] -> ());
    Mutex.protect c.lock (fun () ->
        let prev = try Hashtbl.find c.totals key with Not_found -> 0 in
        Hashtbl.replace c.totals key (prev + d))
  end

let total c (key : string) : int =
  if not c.on then 0
  else
    Mutex.protect c.lock (fun () ->
        try Hashtbl.find c.totals key with Not_found -> 0)

(* ------------------------------------------------------------------ *)
(* Child contexts for work on other domains                            *)

(* The span stack belongs to the owner domain, so work that runs on
   another domain at the same time records into a child context of its
   own and is grafted back once it has finished. The child shares the
   parent's clock, so grafted timestamps are on the parent's timeline;
   its root takes the parent's start time and the track of the
   parent's innermost open span, and consumes no clock tick. *)
let fork c : ctx =
  if not c.on then null
  else
    let track = match c.stack with p :: _ -> p.track | [] -> c.root.track in
    let root = make_node ~track ~t0:c.root.t0 "root" in
    {
      on = true;
      clock = c.clock;
      root;
      lock = Mutex.create ();
      stack = [ root ];
      totals = Hashtbl.create 64;
    }

(* the child's top-level spans (and any counter added outside them)
   land where a sequential run would have put them: under the parent's
   innermost open span *)
let graft c (child : ctx) : unit =
  if c.on && child.on then begin
    let top = match c.stack with p :: _ -> p | [] -> c.root in
    top.rev_children <- child.root.rev_children @ top.rev_children;
    top.counters <-
      List.fold_left
        (fun acc (k, d) -> bump acc k d)
        top.counters child.root.counters;
    let totals =
      Mutex.protect child.lock (fun () ->
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) child.totals [])
    in
    Mutex.protect c.lock (fun () ->
        List.iter
          (fun (k, d) ->
            let prev = try Hashtbl.find c.totals k with Not_found -> 0 in
            Hashtbl.replace c.totals k (prev + d))
          totals)
  end

(* ------------------------------------------------------------------ *)
(* Read-side views                                                      *)

type view = {
  v_name : string;
  v_track : string;
  v_t0 : float;
  v_t1 : float;
  v_args : (string * string) list;
  v_counters : (string * int) list;  (** sorted by key *)
  v_children : view list;
}

let rec view_of (n : node) : view =
  {
    v_name = n.name;
    v_track = n.track;
    v_t0 = n.t0;
    v_t1 = n.t1;
    v_args = n.args;
    v_counters =
      List.sort (fun (a, _) (b, _) -> String.compare a b) n.counters;
    v_children = List.rev_map view_of n.rev_children;
  }

let tree c : view list = if not c.on then [] else (view_of c.root).v_children

let well_formed c : bool =
  (not c.on) || match c.stack with [ r ] -> r == c.root | _ -> false

(** The structural shape of the span tree: names, nesting and counter
    keys, with duplicate sibling subtrees collapsed (first-occurrence
    order). Counter values and timestamps are omitted, so the rendering
    is stable across budgets and machines — the surface the trace-schema
    golden tests pin. *)
let shape c : string =
  let buf = Buffer.create 256 in
  let rec render indent (v : view) =
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf v.v_name;
    (match v.v_counters with
    | [] -> ()
    | cs ->
        Buffer.add_char buf '[';
        Buffer.add_string buf (String.concat "," (List.map fst cs));
        Buffer.add_char buf ']');
    Buffer.add_char buf '\n';
    List.iter (render (indent + 2)) (dedup v.v_children)
  and dedup children =
    (* collapse duplicate sibling shapes, preserving first occurrence *)
    let seen = Hashtbl.create 8 in
    List.filter
      (fun child ->
        let b = Buffer.create 64 in
        let rec key d (v : view) =
          Buffer.add_string b (String.make d '>');
          Buffer.add_string b v.v_name;
          List.iter (fun (k, _) -> Buffer.add_string b ("," ^ k)) v.v_counters;
          List.iter (key (d + 1)) v.v_children
        in
        key 0 child;
        let k = Buffer.contents b in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      children
  in
  List.iter (render 0) (tree c);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let metrics c : J.t =
  Mutex.protect c.lock @@ fun () ->
  let counters =
    Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) c.totals []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  J.Obj [ ("counters", J.Obj counters) ]

(** Chrome [trace_event] JSON (the object format): complete ("X")
    duration events, one thread id per track, each track rebased so its
    earliest span starts at ts 0 (a session's job track carries its own
    timeline). The flat metrics object rides along under the
    "metrics" key — extra top-level keys are legal in the format. *)
let to_chrome c : J.t =
  let views = tree c in
  (* track → (tid, base time), discovered in traversal order *)
  let tracks : (string, int * float) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let rec scan (v : view) =
    (match Hashtbl.find_opt tracks v.v_track with
    | None ->
        Hashtbl.add tracks v.v_track (1 + List.length !order, v.v_t0);
        order := v.v_track :: !order
    | Some (tid, base) ->
        if v.v_t0 < base then Hashtbl.replace tracks v.v_track (tid, v.v_t0));
    List.iter scan v.v_children
  in
  List.iter scan views;
  let rev_events = ref [] in
  let rec emit (v : view) =
    let tid, base =
      match Hashtbl.find_opt tracks v.v_track with
      | Some tb -> tb
      | None -> (0, v.v_t0)
    in
    let us t = Float.max 0.0 ((t -. base) *. 1e6) in
    let args =
      List.map (fun (k, s) -> (k, J.Str s)) v.v_args
      @ List.map (fun (k, n) -> (k, J.Int n)) v.v_counters
    in
    rev_events :=
      J.Obj
        ([
           ("name", J.Str v.v_name);
           ("cat", J.Str v.v_track);
           ("ph", J.Str "X");
           ("ts", J.Float (us v.v_t0));
           ("dur", J.Float (Float.max 0.0 ((v.v_t1 -. v.v_t0) *. 1e6)));
           ("pid", J.Int 1);
           ("tid", J.Int tid);
         ]
        @ if args = [] then [] else [ ("args", J.Obj args) ])
      :: !rev_events;
    List.iter emit v.v_children
  in
  List.iter emit views;
  J.Obj
    [
      ("traceEvents", J.List (List.rev !rev_events));
      ("displayTimeUnit", J.Str "ms");
      ("metrics", metrics c);
    ]

let to_chrome_string c : string = J.to_string (to_chrome c)

(** Write the Chrome trace to [path] and the flat metrics to
    [<path minus extension>.metrics.json]. *)
let write_trace (path : string) c : unit =
  J.write_file path (to_chrome c);
  let metrics_path = Filename.remove_extension path ^ ".metrics.json" in
  J.write_file metrics_path (metrics c)

(* ------------------------------------------------------------------ *)
(* Once-per-process warnings                                           *)

(* Keyed so a hot path (per-call domain clamping, config reads) can warn
   on every call site without flooding stderr: the first call per key
   prints, later ones are no-ops. Mutex-guarded — warners may race from
   several domains. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 8
let warned_lock = Mutex.create ()

let warn_once ~(key : string) (msg : string) : bool =
  let first =
    Mutex.protect warned_lock (fun () ->
        if Hashtbl.mem warned key then false
        else begin
          Hashtbl.add warned key ();
          true
        end)
  in
  if first then Fmt.epr "casper: warning: %s@." msg;
  first
