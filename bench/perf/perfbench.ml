(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench [--seed N] [--seconds S] [--out FILE] [--quick]
       Every workload, each in a fresh child process, one at a time: a
       timed run (end-to-end metrics, all correctness checks), then a
       traced run (per-layer metrics). Prints every metric with its unit
       and writes one results file (default perfbench-out/results.json);
       each child's own output goes to perfbench-out/<workload>-trace<N>.log.
       Exits 1, listing the failures on stderr, if any check failed.

     perfbench --workload W --trace 0|1 [--seed N] [--seconds S] [--out FILE]
       One workload in this process. The last line of standard output is
       one JSON object: correct, attempted, failed and the metrics
       (end-to-end with --trace 0, per-layer with --trace 1).

     perfbench compare OLD NEW
       Per-workload deltas, bounds (from BENCHMARK.json) and verdicts
       between two results files (or directories of them).

   Run from the repository root: the figure reference files and
   BENCHMARK.json are read relative to it. *)

open Ms_util

let usage () =
  prerr_endline
    "usage: perfbench [--workload W --trace 0|1] [--seed N] [--seconds S] [--out FILE] [--quick]\n\
    \       perfbench compare OLD NEW\n\
     workloads: spec-mem spec-cache profiled figures";
  exit 2

let out_dir = "perfbench-out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_json file j =
  mkdir_p (Filename.dirname file);
  Json.to_file file j

(* ---- Results files -------------------------------------------------- *)

let metrics_json ms =
  Json.Obj (List.map (fun (m : Metric.t) -> (m.Metric.name, Metric.to_json m)) ms)

let result_to_json (r : Measure.result) =
  Json.Obj
    [
      ("workload", Json.String r.Measure.workload);
      ("trace", Json.Int (if r.Measure.traced then 1 else 0));
      ("reps", Json.Int r.Measure.reps);
      ("attempted", Json.Int r.Measure.attempted);
      ("failed", Json.Int r.Measure.failed);
      ("correct", Json.Bool (r.Measure.failed = 0));
      ("problems", Json.List (List.map (fun p -> Json.String p) r.Measure.problems));
      ("metrics", metrics_json r.Measure.metrics);
      ("extra", metrics_json r.Measure.extra);
      ("figures", Json.String r.Measure.figures);
    ]

let result_of_json j : Measure.result =
  let get k = match Json.member k j with Some v -> v | None -> failwith ("results: missing " ^ k) in
  let int k = match get k with Json.Int i -> i | _ -> failwith ("results: bad " ^ k) in
  let metrics k =
    match get k with Json.Obj kv -> List.map (fun (n, m) -> Metric.of_json n m) kv | _ -> []
  in
  let strings = function
    | Json.List l -> List.filter_map (function Json.String s -> Some s | _ -> None) l
    | _ -> []
  in
  {
    Measure.workload = (match get "workload" with Json.String s -> s | _ -> "");
    traced = int "trace" = 1;
    reps = int "reps";
    attempted = int "attempted";
    failed = int "failed";
    problems = strings (get "problems");
    metrics = metrics "metrics";
    extra = metrics "extra";
    figures = (match get "figures" with Json.String s -> s | _ -> "");
  }

(* ---- Provenance ----------------------------------------------------- *)

(* Only consult git inside a checkout that has its own .git: git would
   otherwise search the parent directories. *)
let git args =
  if not (Sys.file_exists ".git") then None
  else
    try
      let ic = Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None
    with Unix.Unix_error _ -> None

let provenance ~seed ~argv ~(results : Measure.result list) =
  let tm = Unix.gmtime (Unix.time ()) in
  let counts =
    List.concat_map
      (fun (r : Measure.result) ->
        List.map
          (fun (m : Metric.t) ->
            ( Printf.sprintf "%s/%s" r.Measure.workload m.Metric.name,
              Json.Int (List.length m.Metric.samples) ))
          (r.Measure.metrics @ r.Measure.extra))
      results
  in
  Json.Obj
    [
      ("schema", Json.String "perfbench");
      ("version", Json.Int 1);
      ( "commit",
        match git [ "rev-parse"; "HEAD" ] with Some c -> Json.String c | None -> Json.Null );
      ( "dirty",
        match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
        | Some s -> Json.Bool (s <> "")
        | None -> Json.Null );
      ( "date",
        Json.String
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec) );
      ("host", Json.String (Unix.gethostname ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("seed", Json.Int seed);
      ("argv", Json.List (List.map (fun a -> Json.String a) argv));
      ("sample_counts", Json.Obj counts);
    ]

(* ---- Printing ------------------------------------------------------- *)

let print_result (r : Measure.result) =
  Printf.printf "%s (%s run, %d reps): %d simulations, %d failed\n" r.Measure.workload
    (if r.Measure.traced then "traced" else "timed")
    r.Measure.reps r.Measure.attempted r.Measure.failed;
  List.iter Metric.print r.Measure.metrics;
  List.iter Metric.print r.Measure.extra;
  List.iter (fun p -> Printf.printf "  ! %s\n" p) r.Measure.problems

(* The summary line, last on standard output: exactly correct, attempted,
   failed and metrics. *)
let summary_line (r : Measure.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.Measure.failed = 0));
         ("attempted", Json.Int r.Measure.attempted);
         ("failed", Json.Int r.Measure.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Metric.t) ->
                  ( m.Metric.name,
                    Json.Obj
                      [ ("value", Json.Float m.Metric.value); ("unit", Json.String m.Metric.unit) ] ))
                r.Measure.metrics) );
       ])

(* ---- Modes ---------------------------------------------------------- *)

type opts = {
  mutable workload : string option;
  mutable trace : int;
  mutable seed : int;
  mutable seconds : float;
  mutable out : string option;
  mutable quick : bool;
}

(* The figure reference: the golden iterations-2 run for --quick, the
   committed 40-iteration expectation otherwise. Overheads are checked
   against it at seed 0 only; its paper geomeans serve every seed. *)
let reference o =
  if o.quick then "bench/golden/bench_all_iters2.json" else "bench/perf/expected/figures_seed0.json"

let one o w =
  if not (List.mem w Suite.workload_names) then usage ();
  let reference = if w = "figures" then Some (Suite.load_reference (reference o)) else None in
  let measure = if o.trace = 1 then Measure.traced else Measure.timed in
  let r =
    measure ~workload:w ~seed:o.seed ~seconds:o.seconds ~quick:o.quick ~reference
      ~check_figures:(o.seed = 0)
  in
  if o.trace = 1 then
    write_json
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" w o.seed))
      (Span.to_json
         ~meta:(Json.Obj [ ("workload", Json.String w); ("seed", Json.Int o.seed) ]));
  if r.Measure.figures <> "" then print_string r.Measure.figures;
  print_result r;
  Option.iter (fun f -> write_json f (result_to_json r)) o.out;
  print_endline (summary_line r)

(* Every workload, each run in a fresh child process: timed, then traced. *)
let all o argv =
  let exe = Sys.executable_name in
  let results =
    List.map
      (fun w ->
        let run trace =
          let file = Filename.concat out_dir (Printf.sprintf "%s-trace%d.json" w trace) in
          mkdir_p out_dir;
          if Sys.file_exists file then Sys.remove file;
          let args =
            [ exe; "--workload"; w; "--trace"; string_of_int trace; "--seed"; string_of_int o.seed;
              "--seconds"; Printf.sprintf "%g" o.seconds; "--out"; file ]
            @ if o.quick then [ "--quick" ] else []
          in
          let log = Filename.chop_suffix file ".json" ^ ".log" in
          Printf.printf "perfbench: %s > %s\n%!" (String.concat " " args) log;
          let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          let pid = Unix.create_process exe (Array.of_list args) Unix.stdin fd fd in
          let status = snd (Unix.waitpid [] pid) in
          Unix.close fd;
          match status with
          | Unix.WEXITED 0 ->
            result_of_json (Json.of_string (In_channel.with_open_bin file In_channel.input_all))
          | _ ->
            failwith (Printf.sprintf "perfbench: the %s run (trace %d) failed; see %s" w trace log)
        in
        let timed = run 0 in
        let traced = run 1 in
        (w, timed, traced))
      Suite.workload_names
  in
  List.iter
    (fun (_, t, tr) ->
      print_result t;
      print_result tr)
    results;
  let flat = List.concat_map (fun (_, t, tr) -> [ t; tr ]) results in
  let out = Option.value o.out ~default:(Filename.concat out_dir "results.json") in
  write_json out
    (Json.Obj
       [
         ("provenance", provenance ~seed:o.seed ~argv ~results:flat);
         ( "workloads",
           Json.Obj
             (List.map
                (fun (w, t, tr) ->
                  (w, Json.Obj [ ("timed", result_to_json t); ("traced", result_to_json tr) ]))
                results) );
       ]);
  Printf.printf "results written to %s\n" out;
  let failed = List.fold_left (fun a (r : Measure.result) -> a + r.Measure.failed) 0 flat in
  if failed > 0 then begin
    Printf.eprintf "perfbench: %d simulations failed their checks\n" failed;
    List.iter
      (fun (r : Measure.result) ->
        List.iter (fun p -> Printf.eprintf "  %s: %s\n" r.Measure.workload p) r.Measure.problems)
      flat;
    exit 1
  end

let () =
  let argv = Array.to_list Sys.argv in
  match List.tl argv with
  | [ "compare"; old_f; new_f ] -> exit (Compare.run old_f new_f)
  | "compare" :: _ -> usage ()
  | args ->
    let o = { workload = None; trace = 0; seed = 0; seconds = 12.0; out = None; quick = false } in
    let int s = match int_of_string_opt s with Some v when v >= 0 -> v | _ -> usage () in
    let rec parse = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        o.workload <- Some w;
        parse rest
      | "--trace" :: t :: rest ->
        o.trace <- int t;
        if o.trace > 1 then usage ();
        parse rest
      | "--seed" :: n :: rest ->
        o.seed <- int n;
        parse rest
      | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v > 0.0 -> o.seconds <- v
        | _ -> usage ());
        parse rest
      | "--out" :: f :: rest ->
        o.out <- Some f;
        parse rest
      | "--quick" :: rest ->
        o.quick <- true;
        parse rest
      | _ -> usage ()
    in
    parse args;
    match o.workload with Some w -> one o w | None -> all o argv
