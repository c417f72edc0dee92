(* In-memory span recorder for the traced run.

   Every call the benchmark makes into a library layer goes through
   [timed], which always measures the call's duration (the end-to-end
   metrics need it) and, while [on] is set, also records a span: name,
   start, end, the enclosing span and the simulation job it belongs to.
   Spans stay in memory and are written once, at exit ([to_json]), so
   recording costs one record allocation per call and no I/O. *)

type t = {
  id : int;
  parent : int;  (** enclosing span id, -1 at top level *)
  name : string;
  job : int;  (** simulation job id within the run, -1 outside any job *)
  rep : int;  (** timed repetition the span belongs to, -1 outside reps *)
  t0 : float;
  t1 : float;
}

let on = ref false
let job = ref (-1)
let rep = ref (-1)
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let close () =
      stack := List.tl !stack;
      recorded := { id; parent; name; job = !job; rep = !rep; t0; t1 = now () } :: !recorded
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* [f ()] with its duration in seconds. *)
let timed name f =
  with_span name (fun () ->
      let t0 = now () in
      let r = f () in
      (r, now () -. t0))

let spans () = List.rev !recorded

(* Total duration of the spans named [name], per repetition, for the
   repetitions in [reps] (0 when a repetition has no such span). *)
let rep_totals name reps =
  List.map
    (fun r ->
      List.fold_left
        (fun acc s -> if s.rep = r && s.name = name then acc +. (s.t1 -. s.t0) else acc)
        0.0 !recorded)
    reps

(* Self time: a span's duration minus the part its direct children cover. *)
let summary () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur, slf +. self))
    !recorded;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

let to_json ~meta =
  let open Ms_util.Json in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded in
  Obj
    [
      ("meta", meta);
      ( "summary",
        Obj
          (List.map
             (fun (name, (n, tot, slf)) ->
               (name, Obj [ ("count", Int n); ("total_s", Float tot); ("self_s", Float slf) ]))
             (summary ())) );
      ( "spans",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("parent", Int s.parent);
                   ("name", String s.name);
                   ("job", Int s.job);
                   ("rep", Int s.rep);
                   ("start_s", Float (s.t0 -. origin));
                   ("end_s", Float (s.t1 -. origin));
                 ])
             (spans ())) );
    ]
