(** Per-task event log of a scheduled execution.

    The coordinator records every queue/start/finish/fail/speculative
    copy/recover transition with its simulation timestamp and the bytes the
    task moved; the log renders as paper-style ASCII tables through
    {!Casper_common.Tablefmt} and feeds the [fault_tolerance] section of
    the bench harness. *)

module T = Casper_common.Tablefmt

type kind =
  | Started of { worker : int; attempt : int; speculative : bool }
  | Finished of { worker : int; attempt : int; bytes_out : int }
  | Failed of { worker : int; attempt : int; reason : string }
  | Recovered of { worker : int; lost_share : float; delay_s : float }
  | Worker_died of { worker : int }

type event = {
  t_s : float;  (** simulation time of the transition *)
  stage : int;
  label : string;  (** stage label *)
  task : int;  (** task index within the stage; -1 for worker events *)
  kind : kind;
}

type t = { mutable rev : event list; mutable count : int }

let create () = { rev = []; count = 0 }

let record tr ~t_s ~stage ~label ~task kind =
  tr.rev <- { t_s; stage; label; task; kind } :: tr.rev;
  tr.count <- tr.count + 1

(** All events in timestamp order. *)
let events tr =
  List.stable_sort (fun a b -> Float.compare a.t_s b.t_s) (List.rev tr.rev)

let kind_text = function
  | Started { worker; attempt; speculative } ->
      Fmt.str "%s attempt %d on w%d"
        (if speculative then "speculative start" else "start")
        attempt worker
  | Finished { worker; attempt; _ } ->
      Fmt.str "finish attempt %d on w%d" attempt worker
  | Failed { worker; attempt; reason } ->
      Fmt.str "FAIL attempt %d on w%d (%s)" attempt worker reason
  | Recovered { worker; lost_share; delay_s } ->
      Fmt.str "recover %.0f%% lost input on w%d (+%.2fs)" (100.0 *. lost_share)
        worker delay_s
  | Worker_died { worker } -> Fmt.str "worker w%d died" worker

(** One summary row per stage. *)
type stage_row = {
  stage : int;
  label : string;
  tasks : int;  (** distinct tasks started *)
  attempts : int;
  failures : int;
  speculative : int;
  recoveries : int;
  mb_out : float;  (** bytes written by the winning attempts *)
  finish_s : float;  (** last task completion in the stage *)
}

let summarize tr : stage_row list =
  let rows : (int, stage_row ref) Hashtbl.t = Hashtbl.create 8 in
  (* per (stage, task): bytes of the last completing attempt *)
  let last_bytes : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let row stage label =
    match Hashtbl.find_opt rows stage with
    | Some r -> r
    | None ->
        let r =
          ref
            {
              stage;
              label;
              tasks = 0;
              attempts = 0;
              failures = 0;
              speculative = 0;
              recoveries = 0;
              mb_out = 0.0;
              finish_s = 0.0;
            }
        in
        Hashtbl.add rows stage r;
        r
  in
  let started : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : event) ->
      let r = row e.stage e.label in
      match e.kind with
      | Started { speculative; _ } ->
          if not (Hashtbl.mem started (e.stage, e.task)) then begin
            Hashtbl.add started (e.stage, e.task) ();
            r := { !r with tasks = !r.tasks + 1 }
          end;
          r :=
            {
              !r with
              attempts = !r.attempts + 1;
              speculative = (!r.speculative + if speculative then 1 else 0);
            }
      | Finished { bytes_out; _ } ->
          Hashtbl.replace last_bytes (e.stage, e.task) bytes_out;
          r := { !r with finish_s = Float.max !r.finish_s e.t_s }
      | Failed _ -> r := { !r with failures = !r.failures + 1 }
      | Recovered _ -> r := { !r with recoveries = !r.recoveries + 1 }
      | Worker_died _ -> ())
    (events tr);
  (* accumulate in sorted key order, not hashtable order: float addition
     is not associative, so iteration order would otherwise leak into
     the rendered mb_out digits *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) last_bytes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((stage, _), bytes) ->
         let r = row stage "" in
         r :=
           { !r with mb_out = !r.mb_out +. (float_of_int bytes /. 1048576.0) });
  Hashtbl.fold (fun _ r acc -> !r :: acc) rows []
  |> List.sort (fun a b -> compare a.stage b.stage)

(** Fold the event log into an observability span tree, under the
    caller's current span: one completed span per task attempt (start →
    finish/fail, named by the stage label) plus zero-length marks for
    recoveries and worker deaths, all on the "sched" track, in event
    order — so same-seed schedules export byte-identical traces. *)
let to_obs (obs : Casper_obs.Obs.ctx) tr : unit =
  if Casper_obs.Obs.enabled obs then begin
    let open_attempts :
        (int * int * int * int, float * bool) Hashtbl.t =
      Hashtbl.create 64
    in
    let close (e : event) ~worker ~attempt ~outcome extra =
      let key = (e.stage, e.task, attempt, worker) in
      match Hashtbl.find_opt open_attempts key with
      | None -> ()
      | Some (t0, speculative) ->
          Hashtbl.remove open_attempts key;
          Casper_obs.Obs.span_at obs ~t0 ~t1:e.t_s
            ~args:
              ([
                 ("task", string_of_int e.task);
                 ("attempt", string_of_int attempt);
                 ("worker", string_of_int worker);
                 ("outcome", outcome);
               ]
              @ (if speculative then [ ("speculative", "true") ] else [])
              @ extra)
            e.label
    in
    List.iter
      (fun (e : event) ->
        match e.kind with
        | Started { worker; attempt; speculative } ->
            Casper_obs.Obs.add obs "task_attempts" 1;
            (* attempt numbers start at 1 (see Coordinator.start_attempt) *)
            if attempt > 1 && not speculative then
              Casper_obs.Obs.add obs "task_retries" 1;
            if speculative then
              Casper_obs.Obs.add obs "speculative_launches" 1;
            Hashtbl.replace open_attempts
              (e.stage, e.task, attempt, worker)
              (e.t_s, speculative)
        | Finished { worker; attempt; bytes_out } ->
            Casper_obs.Obs.add obs "tasks_finished" 1;
            close e ~worker ~attempt ~outcome:"finished"
              [ ("bytes_out", string_of_int bytes_out) ];
        | Failed { worker; attempt; reason } ->
            Casper_obs.Obs.add obs "task_failures" 1;
            close e ~worker ~attempt ~outcome:"failed"
              [ ("reason", reason) ]
        | Recovered { worker; lost_share; delay_s } ->
            Casper_obs.Obs.add obs "recoveries" 1;
            Casper_obs.Obs.span_at obs ~t0:e.t_s ~t1:(e.t_s +. delay_s)
              ~args:
                [
                  ("worker", string_of_int worker);
                  ("lost_share", Fmt.str "%.2f" lost_share);
                ]
              "recover"
        | Worker_died { worker } ->
            Casper_obs.Obs.add obs "worker_deaths" 1;
            Casper_obs.Obs.span_at obs ~t0:e.t_s ~t1:e.t_s
              ~args:[ ("worker", string_of_int worker) ]
              "worker-died")
      (events tr)
  end

(** Per-stage summary as a rendered table. *)
let render tr : string =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.stage;
          r.label;
          string_of_int r.tasks;
          string_of_int r.attempts;
          string_of_int r.failures;
          string_of_int r.speculative;
          string_of_int r.recoveries;
          Fmt.str "%.1f" r.mb_out;
          Fmt.str "%.1f" r.finish_s;
        ])
      (summarize tr)
  in
  T.render
    ~aligns:
      [ T.Right; T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ]
    ([
       "#"; "stage"; "tasks"; "attempts"; "failed"; "spec"; "recovered";
       "out (MB)"; "done (s)";
     ]
    :: rows)

(** The first [limit] raw events as a rendered table. *)
let render_events ?(limit = 30) tr : string =
  let evs = events tr in
  let shown = List.filteri (fun i _ -> i < limit) evs in
  let rows =
    List.map
      (fun e ->
        [
          Fmt.str "%.2f" e.t_s;
          e.label;
          (if e.task < 0 then "-" else string_of_int e.task);
          kind_text e.kind;
        ])
      shown
  in
  let table =
    T.render
      ~aligns:[ T.Right; T.Left; T.Right; T.Left ]
      ([ "t (s)"; "stage"; "task"; "event" ] :: rows)
  in
  if List.length evs > limit then
    Fmt.str "%s@.(%d more events)" table (List.length evs - limit)
  else table
