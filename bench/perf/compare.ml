(* perfbench compare OLD NEW: per workload and metric, the delta between
   two results, the metric's regression bound, and a verdict.

   OLD and NEW are each a results file or a directory of results files
   (one per run, in name order). With one run per side the samples are
   the runs' own repetitions; with several, each run's median is one
   sample and runs pair up in order. A gain ("better") is claimed only
   by the rule for ten or more interleaved pairs: the new side wins at
   least nine tenths of the pairs, ties counting for neither, and the
   medians differ by more than the old side's inter-quartile range. *)

open Ms_util

type bound = { better_lower : bool; share : float }

(* Bounds of the end-to-end metrics, from BENCHMARK.json, plus those of
   the metrics only results files carry: the figures' job_p95_ms shares
   wall_s's bound, and the exact checks may not move at all. *)
let load_bounds () =
  let file = "BENCHMARK.json" in
  let j = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let e2e =
    match Json.member "end_to_end" j with
    | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
          | Some (Json.String n), Some (Json.String b), Some v ->
            Some (n, { better_lower = b = "lower"; share = Metric.num v })
          | _ -> None)
        l
    | _ -> failwith (file ^ ": no end_to_end list")
  in
  e2e
  @ (match List.assoc_opt "wall_s" e2e with Some b -> [ ("job_p95_ms", b) ] | None -> [])
  @ List.map
      (fun n -> (n, { better_lower = true; share = 0.0 }))
      [ "fail_rate"; "model_drift"; "paper_err" ]

(* workload -> metric -> Metric.t, for one results file (the timed runs'
   metrics and extra metrics). *)
let load_run file =
  let j = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let ws = match Json.member "workloads" j with Some (Json.Obj kv) -> kv | _ -> [] in
  List.map
    (fun (w, wj) ->
      let timed = Option.value ~default:Json.Null (Json.member "timed" wj) in
      let section k = match Json.member k timed with Some (Json.Obj kv) -> kv | _ -> [] in
      (w, List.map (fun (n, mj) -> (n, Metric.of_json n mj)) (section "metrics" @ section "extra")))
    ws

let load_side path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> load_run (Filename.concat path f))
  else [ load_run path ]

(* The gain rule: ten or more pairs, the new side winning nine tenths of
   them, and medians further apart than the old side's quartiles. *)
let gain b ~old_s ~new_s ~pairs =
  let better x y = if b.better_lower then x < y else x > y in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.length (List.filter (fun (o, n) -> better n o) (List.combine (take old_s) (take new_s)))
  in
  let q1, q3 = Metric.quartiles old_s in
  let old_m = Metric.median old_s and new_m = Metric.median new_s in
  pairs >= 10 && 10 * wins >= 9 * pairs && better new_m old_m && Float.abs (new_m -. old_m) > q3 -. q1

let verdict b ~old_s ~new_s ~pairs =
  let old_m = Metric.median old_s and new_m = Metric.median new_s in
  let better x y = if b.better_lower then x < y else x > y in
  let worse_by =
    if old_m = 0.0 then if new_m = old_m then 0.0 else if better new_m old_m then -1.0 else infinity
    else (if b.better_lower then new_m -. old_m else old_m -. new_m) /. Float.abs old_m
  in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> better n o) old_s) new_s in
  if b.share = 0.0 then
    if new_m = old_m then "within bound" else if better new_m old_m then "better" else "worse"
  else if gain b ~old_s ~new_s ~pairs then "better"
  else if Metric.spread old_s > b.share && not all_better then "unresolved"
  else if worse_by > b.share then "worse"
  else "within bound"

let run old_path new_path =
  let bounds = load_bounds () in
  let olds = load_side old_path and news = load_side new_path in
  let pairs = min (List.length olds) (List.length news) in
  let find run w n = Option.bind (List.assoc_opt w run) (List.assoc_opt n) in
  let samples runs w n =
    match runs with
    | [ run ] -> ( match find run w n with Some m -> m.Metric.samples | None -> [])
    | _ -> List.filter_map (fun run -> Option.map (fun m -> m.Metric.value) (find run w n)) runs
  in
  let value runs w n =
    match runs with
    | [ run ] -> Option.map (fun m -> m.Metric.value) (find run w n)
    | _ -> ( match samples runs w n with [] -> None | s -> Some (Metric.median s))
  in
  let workloads = match olds with run :: _ -> List.map fst run | [] -> [] in
  let t =
    Table_fmt.create
      [ "workload"; "metric"; "old"; "new"; "delta"; "bound"; "old spread"; "verdict" ]
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (n, b) ->
          match (value olds w n, value news w n) with
          | Some o, Some nv ->
            let old_s = samples olds w n and new_s = samples news w n in
            let v = verdict b ~old_s ~new_s ~pairs in
            if v = "worse" then incr worse;
            Table_fmt.add_row t
              [
                w;
                n;
                Printf.sprintf "%.6g" o;
                Printf.sprintf "%.6g" nv;
                (if o = 0.0 then Printf.sprintf "%+.3g" (nv -. o)
                 else Printf.sprintf "%+.2f%%" (100.0 *. (nv -. o) /. Float.abs o));
                (if b.share = 0.0 then "exact" else Printf.sprintf "%.0f%%" (100.0 *. b.share));
                Printf.sprintf "%.2f%%" (100.0 *. Metric.spread old_s);
                v;
              ]
          | _ -> ())
        bounds;
      Table_fmt.add_sep t)
    workloads;
  Printf.printf "perfbench compare: %d old run(s), %d new run(s), %d pair(s)\n"
    (List.length olds) (List.length news) pairs;
  Table_fmt.print t;
  if !worse > 0 then 1 else 0
