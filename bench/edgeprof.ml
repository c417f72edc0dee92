(* Edge-profile artifact for the fig3-fig6 corpus.

   Runs every SPEC-like workload under one representative config per
   figure family (address-based MPX-rw for fig3, the three domain-based
   techniques at call/ret for figs 4-6) with the fast-path block/edge
   counters installed, and records the resulting CFG edge profiles.

   The JSON written via --json shows what the superblock tier
   ([X86sim.Trace]) forms its traces from: each (benchmark, config) entry
   carries the executed blocks and their exact taken/fall edges plus the
   Boyer-Moore majority target of every indirect exit, next to the traces
   that formed and why their chains ended. *)

open Ms_util
open Memsentry

let configs =
  [
    ("MPX-rw", Framework.config ~address_kind:Instr.Reads_and_writes Technique.Mpx);
    ("MPK", Bench_common.mpk_cfg Instr.At_call_ret);
    ("VMFUNC", Bench_common.vmfunc_cfg Instr.At_call_ret);
    ("crypt", Bench_common.crypt_cfg Instr.At_call_ret);
  ]

let profile_one prof cfg =
  let p =
    Workloads.Runner.prepare_instrumented ~iterations:!Bench_common.iterations prof cfg
  in
  Fastprof.install p;
  (match Framework.run p with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> failwith "edgeprof: out of fuel");
  Fastprof.capture ~workload:prof.Workloads.Profile.name p

let edge_json (src, dst, kind, count) =
  Json.Obj
    [
      ("from", Json.Int src);
      ("to", Json.Int dst);
      ("kind", Json.String kind);
      ("count", Json.Int count);
    ]

let entry_json (prof : Fastprof.t) edges =
  Json.Obj
    [
      ("benchmark", Json.String prof.Fastprof.p_workload);
      ("config", Json.String prof.Fastprof.p_technique);
      ("cycles", Json.Float prof.Fastprof.p_cycles);
      ("insns", Json.Int prof.Fastprof.p_insns);
      ("blocks", Json.Int (List.length prof.Fastprof.p_blocks));
      ("edges", Json.List (List.map edge_json edges));
      ( "traces",
        Json.Obj
          [
            ("formed", Json.Int prof.Fastprof.p_traces_formed);
            ("covered_insns", Json.Int prof.Fastprof.p_trace_covered);
            ("fused_uops", Json.Int prof.Fastprof.p_trace_fused);
            ("cached_slots", Json.Int prof.Fastprof.p_trace_slots);
            ("dead_flags", Json.Int prof.Fastprof.p_trace_dead_flags);
            (* Why formation walks stopped where they did: the coverage
               diagnosis. A benchmark with low cov%% and a dominant
               indirect_minority count (povray's profile: polymorphic
               indirect calls with no absolute-majority target) is
               target-distribution-limited — raising hot_threshold or the
               jcc bias cannot recover it. *)
            ( "chain_ends",
              Json.Obj
                [
                  ("cold_branch", Json.Int prof.Fastprof.p_abort_cold);
                  ("indirect_minority", Json.Int prof.Fastprof.p_abort_indirect);
                  ("cap_hit", Json.Int prof.Fastprof.p_abort_cap);
                  ("handler_term", Json.Int prof.Fastprof.p_abort_handler);
                ] );
            ("list", Json.List (List.map Fastprof.trace_to_json prof.Fastprof.p_traces));
          ] );
    ]

(* Dominant chain-end reason, for the human-readable table. *)
let dominant_abort (fp : Fastprof.t) =
  let reasons =
    [
      ("cold-branch", fp.Fastprof.p_abort_cold);
      ("indirect", fp.Fastprof.p_abort_indirect);
      ("cap", fp.Fastprof.p_abort_cap);
      ("handler", fp.Fastprof.p_abort_handler);
    ]
  in
  match List.sort (fun (_, a) (_, b) -> compare b a) reasons with
  | (_, 0) :: _ -> "-"
  | (name, n) :: _ -> Printf.sprintf "%s (%d)" name n
  | [] -> "-"

let run () =
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Left; Table_fmt.Left; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Left;
               Table_fmt.Left ]
      [ "benchmark"; "config"; "blocks"; "edges"; "indirect"; "traces"; "cov%"; "chain end";
        "hottest edge" ]
  in
  let entries =
    List.concat_map
      (fun prof ->
        List.map
          (fun (cname, cfg) ->
            let fp = profile_one prof cfg in
            let edges = Report.edges_of fp in
            let indirect =
              List.length (List.filter (fun (_, _, k, _) -> k = "indirect") edges)
            in
            let hottest =
              match
                List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) edges
              with
              | (src, dst, kind, count) :: _ ->
                Printf.sprintf "%d -> %d (%s, %d)" src dst kind count
              | [] -> "-"
            in
            let cov =
              if fp.Fastprof.p_insns = 0 then 0.0
              else
                100.0
                *. float_of_int fp.Fastprof.p_trace_covered
                /. float_of_int fp.Fastprof.p_insns
            in
            Table_fmt.add_row t
              [
                Bench_common.short prof.Workloads.Profile.name; cname;
                string_of_int (List.length fp.Fastprof.p_blocks);
                string_of_int (List.length edges); string_of_int indirect;
                string_of_int fp.Fastprof.p_traces_formed;
                Printf.sprintf "%.1f" cov; dominant_abort fp; hottest;
              ];
            entry_json fp edges)
          configs)
      Workloads.Spec2006.all
  in
  print_endline
    "Edge profiles of the fig3-6 corpus (fast-path block counters, superblock input)";
  Table_fmt.print t;
  Bench_common.record_json "edgeprof" (Json.List entries)
