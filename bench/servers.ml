(* Server workloads: the paper's §6 remark — "the overhead for I/O bound
   applications such as servers will be lower" — measured. The same
   configurations as Figures 3 and 4, over I/O-bound request loops. *)

open Ms_util
open Memsentry

let configs =
  [
    ("MPX-rw", Framework.config Technique.Mpx);
    ("SFI-rw", Framework.config Technique.Sfi);
    ("MPK c/r", Bench_common.mpk_cfg Instr.At_call_ret);
    ("VMFUNC c/r", Bench_common.vmfunc_cfg Instr.At_call_ret);
    ("crypt c/r", Bench_common.crypt_cfg Instr.At_call_ret);
  ]

(* --- multi-vCPU sweep (--vcpus N) -------------------------------------- *)

(* The single-core sweep above answers "how much does one worker slow
   down"; this one answers "what does a multi-worker deployment look
   like": N identical request workers on one shared-memory machine,
   deterministic round-robin. VMFUNC is absent — its hypervisor
   virtualizes one CPU (Framework.prepare rejects it on more than one). *)
let smp_configs =
  [
    ("MPX-rw", Framework.config Technique.Mpx);
    ("SFI-rw", Framework.config Technique.Sfi);
    ("MPK c/r", Bench_common.mpk_cfg Instr.At_call_ret);
    ("crypt c/r", Bench_common.crypt_cfg Instr.At_call_ret);
  ]

let smp_counts max = List.filter (fun n -> n <= max) [ 1; 2; 4; 8 ]

let run_smp () =
  let iterations = !Bench_common.iterations in
  let counts = smp_counts !Bench_common.vcpus in
  let results =
    List.concat_map
      (fun prof ->
        List.concat_map
          (fun (cname, cfg) ->
            List.map
              (fun vcpus ->
                (prof.Workloads.Profile.name, cname, vcpus,
                 Workloads.Runner.run_with ~iterations ~vcpus prof cfg))
              counts)
          smp_configs)
      Workloads.Servers.all
  in
  let t =
    Table_fmt.create
      ~align:
        [ Table_fmt.Left; Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
          Table_fmt.Right; Table_fmt.Right; Table_fmt.Right ]
      [ "workload"; "config"; "vcpus"; "throughput"; "min util"; "crossings"; "shootdowns"; "IPC" ]
  in
  List.iter
    (fun (wname, cname, vcpus, r) ->
      (* Aggregate throughput relative to one worker's makespan: N
         workers' instructions over the slowest core's cycles, normalized
         to the same workload's 1-vCPU run. *)
      let base =
        let _, _, _, r1 =
          List.find (fun (w, c, n, _) -> w = wname && c = cname && n = 1) results
        in
        r1.Workloads.Runner.ipc
      in
      let tput = r.Workloads.Runner.ipc /. base in
      let min_util = Array.fold_left Float.min infinity r.Workloads.Runner.utilization in
      Table_fmt.add_row t
        [
          wname; cname; string_of_int vcpus;
          Printf.sprintf "%.2fx" tput;
          Printf.sprintf "%.3f" min_util;
          string_of_int r.Workloads.Runner.switch_count;
          string_of_int r.Workloads.Runner.shootdowns;
          Printf.sprintf "%.3f" r.Workloads.Runner.ipc;
        ])
    results;
  Printf.printf
    "Multi-worker server deployments (shared-memory machine, %d-core max,\n\
     deterministic round-robin; throughput normalized to 1 vCPU)\n"
    !Bench_common.vcpus;
  Table_fmt.print t;
  print_newline ();
  let core_json (c : Workloads.Runner.core_result) util =
    Json.Obj
      [
        ("cycles", Json.Float c.Workloads.Runner.cycles);
        ("insns", Json.Int c.Workloads.Runner.insns);
        ("ipc", Json.Float c.Workloads.Runner.ipc);
        ("gate_crossings", Json.Int c.Workloads.Runner.switch_count);
        ("utilization", Json.Float util);
      ]
  in
  Bench_common.record_json "servers_smp"
    (Json.List
       (List.map
          (fun (wname, cname, vcpus, r) ->
            Json.Obj
              [
                ("workload", Json.String wname);
                ("config", Json.String cname);
                ("vcpus", Json.Int vcpus);
                ("makespan", Json.Float r.Workloads.Runner.cycles);
                ("total_insns", Json.Int r.Workloads.Runner.insns);
                ("gate_crossings", Json.Int r.Workloads.Runner.switch_count);
                ("shootdowns", Json.Int r.Workloads.Runner.shootdowns);
                ( "cores",
                  Json.List
                    (Array.to_list
                       (Array.mapi
                          (fun k c -> core_json c r.Workloads.Runner.utilization.(k))
                          r.Workloads.Runner.per_core)) );
              ])
          results))

let run () =
  let iterations = !Bench_common.iterations in
  let rows = Workloads.Runner.sweep ~iterations Workloads.Servers.all configs in
  let t = Table_fmt.create ("workload" :: List.map fst configs) in
  List.iter
    (fun (name, row) ->
      Table_fmt.add_row t (name :: List.map (fun (_, v) -> Table_fmt.cell_f v) row))
    rows;
  Table_fmt.add_sep t;
  let geo = Workloads.Runner.geomean_overheads rows in
  Table_fmt.add_row t ("server geomean" :: List.map (fun (_, v) -> Table_fmt.cell_f v) geo);
  (* SPEC geomeans under the same configs, for the dilution comparison. *)
  let spec_rows = Workloads.Runner.sweep ~iterations Workloads.Spec2006.all configs in
  let spec_geo = Workloads.Runner.geomean_overheads spec_rows in
  Table_fmt.add_row t
    ("SPEC geomean" :: List.map (fun (_, v) -> Table_fmt.cell_f v) spec_geo);
  print_endline
    "Server (I/O-bound) workloads vs SPEC under the same instrumentation\n\
     (paper §6: overhead for I/O-bound applications is lower)";
  Table_fmt.print t;
  List.iter2
    (fun (name, sv) (_, cv) ->
      Printf.printf "  %-10s overhead diluted %.1fx (%.1f%% -> %.1f%%)\n" name
        (if sv -. 1.0 > 0.001 then (cv -. 1.0) /. (sv -. 1.0) else 1.0)
        ((cv -. 1.0) *. 100.0) ((sv -. 1.0) *. 100.0))
    geo spec_geo;
  print_newline ();
  if !Bench_common.vcpus > 1 then run_smp ()
