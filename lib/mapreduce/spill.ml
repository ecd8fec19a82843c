(** Memory-budgeted external grouping. See spill.mli. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs

exception Spill_error of string

let err fmt = Fmt.kstr (fun s -> raise (Spill_error s)) fmt

(* runs merged at once; more get compacted into one first *)
let max_fanin = 64

(* ------------------------------------------------------------------ *)
(* In-memory buffer: one entry per distinct key, values kept raw and in
   reverse arrival order (merging partially folded accumulators would
   break byte-identity for non-associative reduce functions)            *)

type table = {
  tbl : Value.t list ref Value.Tbl.t;  (* first-arrival key -> values *)
  mutable count : int;  (* records, not keys *)
}

let table_create () = { tbl = Value.Tbl.create 64; count = 0 }

let table_add m k v =
  (match Value.Tbl.find_opt m.tbl k with
  | Some vals_rev -> vals_rev := v :: !vals_rev
  | None -> Value.Tbl.add m.tbl k (ref [ v ]));
  m.count <- m.count + 1

(* one key's values in arrival order *)
type group = { gk : Value.t; gvals : Value.t list }

(* the table's groups in ascending key order *)
let sorted m =
  Value.Tbl.fold
    (fun k vals_rev acc -> { gk = k; gvals = List.rev !vals_rev } :: acc)
    m.tbl []
  |> List.sort (fun a b -> Value.compare a.gk b.gk)

type t = {
  budget : int;
  parent : string;  (* directory [dir] is created under *)
  obs : Obs.ctx;
  label : string;
  mutable mem : table;
  mutable live_bytes : int;
  mutable runs : string list;  (* run file paths, newest first *)
  mutable nruns : int;
  mutable fileno : int;
  mutable dir : string option;  (* created on first spill *)
  mutable runs_written : int;
  mutable bytes_spilled : int;
  mutable merge_fanin : int;
  mutable cleaned : bool;
}

type stats = {
  runs_written : int;
  bytes_spilled : int;
  merge_fanin : int;
}

let stats (t : t) : stats =
  {
    runs_written = t.runs_written;
    bytes_spilled = t.bytes_spilled;
    merge_fanin = t.merge_fanin;
  }

let create ?(obs = Obs.null) ?(dir = Filename.get_temp_dir_name ()) ~budget
    ~label () =
  if budget <= 0 then err "budget must be positive, got %d" budget;
  {
    budget;
    parent = dir;
    obs;
    label;
    mem = table_create ();
    live_bytes = 0;
    runs = [];
    nruns = 0;
    fileno = 0;
    dir = None;
    runs_written = 0;
    bytes_spilled = 0;
    merge_fanin = 0;
    cleaned = false;
  }

(* ------------------------------------------------------------------ *)
(* Temp files                                                          *)

let dir_counter = Atomic.make 0

(* no unix dep: probe names until mkdir succeeds (the counter is
   process-wide, so collisions only come from other processes) *)
let fresh_dir parent =
  let rec go tries =
    if tries > 1000 then err "cannot create a spill directory under %s" parent;
    let name = Printf.sprintf "casper-spill-%d" (Atomic.fetch_and_add dir_counter 1) in
    let path = Filename.concat parent name in
    match Sys.mkdir path 0o700 with
    | () -> path
    | exception Sys_error _ when Sys.file_exists path -> go (tries + 1)
    | exception Sys_error m ->
        err "cannot create a spill directory under %s: %s" parent m
  in
  go 0

let dir_of t =
  match t.dir with
  | Some d -> d
  | None ->
      let d = fresh_dir t.parent in
      t.dir <- Some d;
      d

let fresh_path t =
  let n = t.fileno in
  t.fileno <- n + 1;
  Filename.concat (dir_of t) (Printf.sprintf "run-%d.spill" n)

let cleanup t =
  if not t.cleaned then begin
    t.cleaned <- true;
    List.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) t.runs;
    t.runs <- [];
    t.nruns <- 0;
    match t.dir with
    | None -> ()
    | Some d -> ( try Sys.rmdir d with Sys_error _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Run files: Codec header, then per key (ascending {!Value.compare}
   order): framed key value, varint value count, framed values in
   arrival order                                                       *)

type writer = { oc : out_channel; buf : Buffer.t; mutable bytes : int }

let writer_open path =
  let oc = try open_out_bin path with Sys_error m -> err "open %s: %s" path m in
  let buf = Buffer.create 65536 in
  Codec.write_header buf;
  { oc; buf; bytes = 0 }

let writer_flush w =
  w.bytes <- w.bytes + Buffer.length w.buf;
  Buffer.output_buffer w.oc w.buf;
  Buffer.clear w.buf

(* [segments] are value lists of one key in arrival order *)
let write_group w ~k ~segments =
  Codec.write_framed w.buf k;
  let count = List.fold_left (fun a vs -> a + List.length vs) 0 segments in
  Codec.write_varint w.buf count;
  List.iter (List.iter (Codec.write_framed w.buf)) segments;
  if Buffer.length w.buf >= 65536 then writer_flush w

let writer_close w =
  writer_flush w;
  close_out_noerr w.oc;
  w.bytes

let write_table path m =
  let w = writer_open path in
  Fun.protect ~finally:(fun () -> close_out_noerr w.oc) @@ fun () ->
  List.iter (fun g -> write_group w ~k:g.gk ~segments:[ g.gvals ]) (sorted m);
  writer_close w

(* ------------------------------------------------------------------ *)
(* Run readers and the k-way merge                                     *)

type reader = { mutable cur : group option; next : unit -> group option }

let in_varint_cont ic first =
  let acc = ref (first land 0x7f) and shift = ref 7 and b = ref first in
  while !b land 0x80 <> 0 do
    if !shift > 56 then err "varint too long in run file";
    b := input_byte ic;
    acc := !acc lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  !acc

let in_varint ic = in_varint_cont ic (input_byte ic)

let in_framed_cont ic first =
  let len = in_varint_cont ic first in
  if len < 0 then err "negative frame length in run file";
  let payload = really_input_string ic len in
  try Codec.decode payload with Codec.Codec_error m -> err "corrupt run: %s" m

let in_framed ic = in_framed_cont ic (input_byte ic)

(* EOF at a group boundary ends the run; anywhere else it is corruption *)
let read_group ic =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 -> (
      try
        let k = in_framed_cont ic b0 in
        let count = in_varint ic in
        if count < 0 then err "negative value count in run file";
        let vals = List.init count (fun _ -> in_framed ic) in
        Some { gk = k; gvals = vals }
      with End_of_file -> err "truncated run file")

let file_reader ic = { cur = None; next = (fun () -> read_group ic) }

let mem_reader m =
  let rest = ref (sorted m) in
  {
    cur = None;
    next =
      (fun () ->
        match !rest with
        | [] -> None
        | g :: tl ->
            rest := tl;
            Some g);
  }

let advance r = r.cur <- r.next ()

(* Readers must be in arrival order (run i's window precedes run
   i+1's, memory last): the first reader holding the minimal key then
   contains its earliest arrival, so taking that reader's key value
   reproduces the in-memory first-arrival representative, and
   concatenating segments in reader order reproduces arrival order. *)
let merge readers ~emit_group =
  List.iter advance readers;
  let rec loop () =
    let best =
      List.fold_left
        (fun acc r ->
          match (r.cur, acc) with
          | None, _ -> acc
          | Some g, None -> Some g.gk
          | Some g, Some k -> if Value.compare g.gk k < 0 then Some g.gk else acc)
        None readers
    in
    match best with
    | None -> ()
    | Some key ->
        let segs = ref [] in
        List.iter
          (fun r ->
            match r.cur with
            | Some g when Value.equal g.gk key ->
                segs := g.gvals :: !segs;
                advance r
            | _ -> ())
          readers;
        emit_group key (List.rev !segs);
        loop ()
  in
  loop ()

let open_run path =
  let ic = try open_in_bin path with Sys_error m -> err "open %s: %s" path m in
  match really_input_string ic Codec.header_size with
  | exception End_of_file ->
      close_in_noerr ic;
      err "truncated run header in %s" path
  | hdr -> (
      match Codec.check_header hdr with
      | () -> ic
      | exception Codec.Codec_error m ->
          close_in_noerr ic;
          err "bad run header in %s: %s" path m)

(* ------------------------------------------------------------------ *)
(* Spilling                                                            *)

(* Merge every existing run into one so [finish] (and fd usage) stays
   bounded at tiny budgets; consecutive windows union to a window.     *)
let compact t =
  let ics = ref [] in
  let merged =
    Fun.protect ~finally:(fun () -> List.iter close_in_noerr !ics) @@ fun () ->
    let readers =
      List.map
        (fun path ->
          let ic = open_run path in
          ics := ic :: !ics;
          file_reader ic)
        (List.rev t.runs)
    in
    let path = fresh_path t in
    let w = writer_open path in
    Fun.protect ~finally:(fun () -> close_out_noerr w.oc) @@ fun () ->
    merge readers ~emit_group:(fun k segs -> write_group w ~k ~segments:segs);
    let bytes = writer_close w in
    t.bytes_spilled <- t.bytes_spilled + bytes;
    Obs.add t.obs "spill_bytes" bytes;
    path
  in
  List.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) t.runs;
  t.runs <- [ merged ];
  t.nruns <- 1

let spill t =
  if t.mem.count > 0 then begin
    if t.nruns >= max_fanin then compact t;
    let path = fresh_path t in
    let bytes = write_table path t.mem in
    t.runs <- path :: t.runs;
    t.nruns <- t.nruns + 1;
    t.runs_written <- t.runs_written + 1;
    t.bytes_spilled <- t.bytes_spilled + bytes;
    Obs.add t.obs "spill_runs" 1;
    Obs.add t.obs "spill_bytes" bytes;
    t.mem <- table_create ();
    t.live_bytes <- 0
  end

let add t k v =
  if t.cleaned then err "add to a finished grouper";
  table_add t.mem k v;
  t.live_bytes <- t.live_bytes + Value.size_of k + Value.size_of v;
  if t.live_bytes > t.budget then spill t

(* ------------------------------------------------------------------ *)

let finish t ~init ~step ~record ~emit =
  if t.cleaned then err "finish on a finished grouper";
  Fun.protect ~finally:(fun () -> cleanup t) @@ fun () ->
  let fold_group k segments =
    let cell = ref None in
    List.iter
      (List.iter (fun v ->
           match !cell with
           | None -> cell := Some (init v)
           | Some c -> step c v))
      segments;
    match !cell with
    | Some c -> emit (record k c)
    | None -> assert false
  in
  if t.nruns = 0 then merge [ mem_reader t.mem ] ~emit_group:fold_group
  else begin
    t.merge_fanin <- t.nruns + (if t.mem.count > 0 then 1 else 0);
    Obs.add t.obs "spill_merge_fanin" t.merge_fanin;
    Obs.span t.obs "spill.merge"
      ~args:
        [ ("stage", t.label); ("fanin", string_of_int t.merge_fanin) ]
    @@ fun () ->
    let ics = ref [] in
    Fun.protect ~finally:(fun () -> List.iter close_in_noerr !ics) @@ fun () ->
    let file_readers =
      List.map
        (fun path ->
          let ic = open_run path in
          ics := ic :: !ics;
          file_reader ic)
        (List.rev t.runs)
    in
    let readers =
      if t.mem.count > 0 then file_readers @ [ mem_reader t.mem ]
      else file_readers
    in
    merge readers ~emit_group:fold_group
  end
