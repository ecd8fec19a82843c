(** Deterministic parallel map on self-exiting domains. See par.mli.

    Determinism argument, in one place: [spawn_map] runs one claim loop
    over a batch — an item array, a slot array and an [Atomic] next
    index. The caller and its spawned domains each claim the next
    unclaimed index and write slot [i] only for an index [i] they
    claimed; [f] is pure (closures over immutable snapshots — the
    callers' obligation), so which domain claims what cannot be
    observed. The merge walks the slots in index order, re-raising the
    first (lowest-index) captured exception — exactly the element the
    sequential [List.map] would have raised at, under the same purity
    assumption. Publication: the caller reads the slots only after
    [Domain.join] on every spawned domain. *)

(* set while this domain is executing a map task: nested maps run
   inline (a nested search stays wholly inside one domain's caches) *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let on_worker () = Domain.DLS.get in_task

let exec_task (t : unit -> 'a) : 'a =
  let saved = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task saved) t

let spawn (f : unit -> 'a) : 'a Domain.t option =
  match Domain.spawn f with d -> Some d | exception Failure _ -> None

(** Submission-order merge: first (lowest-index) captured exception
    re-raised, else the values in order. *)
let merge_results (results : ('b, exn) result array) : 'b list =
  let n = Array.length results in
  let rec first_error i =
    if i = n then None
    else match results.(i) with Error e -> Some e | Ok _ -> first_error (i + 1)
  in
  match first_error 0 with
  | Some e -> raise e
  | None ->
      List.init n (fun i ->
          match results.(i) with Ok v -> v | Error _ -> assert false)

(* No spawned domain ever blocks waiting for work: an idle domain still
   has to join every stop-the-world minor collection, which slows down
   the domains that are working (DESIGN.md §10). *)
let spawn_map ~jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if jobs < 1 then invalid_arg "Par.spawn_map: jobs must be >= 1";
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 || on_worker () -> List.map f xs
  | _ ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let slots : ('b, exn) result array = Array.make n (Error Exit) in
      let next = Atomic.make 0 in
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          slots.(i) <- (try Ok (f items.(i)) with e -> Error e);
          claim ()
        end
      in
      let work () = exec_task claim in
      (* a domain that cannot be spawned (the runtime's domain limit)
         only narrows the map: the caller claims what is left *)
      let rec spawn_k k acc =
        if k = 0 then acc
        else
          match spawn work with
          | Some d -> spawn_k (k - 1) (d :: acc)
          | None -> acc
      in
      let domains = spawn_k (min jobs n - 1) [] in
      work ();
      List.iter Domain.join domains;
      merge_results slots

(* [recommended_jobs requested] clamps a requested domain count to the
   host's [Domain.recommended_domain_count]: asking for more domains
   than cores makes the work *slower* (oversubscribed domains), so a
   binary sizing its maps from a flag never oversubscribes. Explicit
   [spawn_map ~jobs] is left unclamped — determinism tests deliberately
   map on 4 domains on 1-core hosts. Warns once per process when
   clamping. *)
let recommended_jobs (requested : int) : int =
  let host = Domain.recommended_domain_count () in
  if requested > host then begin
    ignore
      (Casper_obs.Obs.warn_once ~key:"par.jobs-clamped"
         (Printf.sprintf
            "requested %d jobs but host recommends %d domains; clamping \
             (explicit Par.spawn_map ~jobs is not clamped)"
            requested host));
    host
  end
  else requested
