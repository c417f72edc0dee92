(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation plus the prose experiments and the ablations (the full
   reproduction run recorded in EXPERIMENTS.md). Individual targets can be
   selected by name. A target that checks what it measures (gateopt) marks
   a failed check in [Bench_common.failed]; the run then exits 1, after
   the --json file is written. *)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|table3|table4|fig3|fig4|fig5|fig6|extras|ablations|domains|servers|codesize|verify|gateopt|attacks|all]\n\
     \  --iterations N   workload loop iterations (default 40)\n\
     \  --jobs N         run independent simulations on N domains (default 1)\n\
     \  --vcpus N        servers only: also sweep multi-vCPU machines up to N cores\n\
     \                   (default 1 = single-core only, keeps goldens stable)\n\
     \  --json FILE      also write machine-readable results (figures 3-6, table 4)";
  exit 1

let rec run_target = function
  | "table1" -> print_string (Memsentry.Report.table1 ())
  | "table2" -> print_string (Memsentry.Report.table2 ())
  | "table3" -> print_string (Memsentry.Report.table3 ())
  | "table4" -> Table4.run ()
  | "fig3" -> Fig3.run ()
  | "fig4" -> Fig4.run ()
  | "fig5" -> Fig5.run ()
  | "fig6" -> Fig6.run ()
  | "extras" -> Extras.run ()
  | "ablations" -> Ablations.run ()
  | "attacks" -> Attacks.Harness.print_table (Attacks.Harness.run_all ())
  | "domains" -> Domains.run ()
  | "servers" -> Servers.run ()
  | "codesize" -> Codesize.run ()
  | "verify" -> Verify_stats.run ()
  | "gateopt" -> Gateopt.run ()
  | "all" ->
    List.iter run_target_unit
      [
        "table1"; "table2"; "table3"; "table4"; "fig3"; "fig4"; "fig5"; "fig6"; "extras";
        "ablations"; "domains"; "servers"; "codesize"; "verify"; "attacks";
      ]
  | other ->
    Printf.eprintf "unknown target %S\n" other;
    usage ()

and run_target_unit t =
  run_target t;
  print_newline ()

let () =
  let json_file = ref None in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse targets = function
    | [] -> List.rev targets
    | "--iterations" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v > 0 -> Bench_common.iterations := v
      | Some _ | None -> usage ());
      parse targets rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v > 0 -> Bench_common.jobs := v
      | Some _ | None -> usage ());
      parse targets rest
    | "--vcpus" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v > 0 -> Bench_common.vcpus := v
      | Some _ | None -> usage ());
      parse targets rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse targets rest
    | ("-h" | "--help") :: _ -> usage ()
    | t :: rest -> parse (t :: targets) rest
  in
  let targets = parse [] args in
  let targets = if targets = [] then [ "all" ] else targets in
  List.iter run_target targets;
  (match !json_file with
  | None -> ()
  | Some file ->
    Bench_common.write_json file;
    Printf.printf "results written to %s\n" file);
  if !Bench_common.failed then exit 1
