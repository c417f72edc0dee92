(* memsentry — command-line front end.

   Subcommands:
     list               benchmarks and techniques
     report             the paper's survey tables (1-3), or — given a
                        workload — the fast-path CPI-stack / hot-block /
                        hot-edge report (+ flamegraph/speedscope export)
     inspect BENCH      generated IR and lowering summary for a workload
     run BENCH          measure one workload under a technique
     profile BENCH      per-gate-site attribution table (+ JSON / Chrome trace)
     perf-diff OLD NEW  compare two fast-path profile JSONs for regressions
     verify BENCH       statically verify instrumented output
     optimize BENCH     check-motion optimization + cost-model validation
     attacks            the threat-model experiment *)

open Cmdliner
open Memsentry

let technique_conv =
  let parse = function
    | "sfi" -> Ok Technique.Sfi
    | "mpx" -> Ok Technique.Mpx
    | "isboxing" -> Ok Technique.Isboxing
    | "mpk" -> Ok (Technique.Mpk Mpk.Pkey.No_access)
    | "mpk-integrity" -> Ok (Technique.Mpk Mpk.Pkey.Read_only)
    | "vmfunc" -> Ok Technique.Vmfunc
    | "crypt" -> Ok Technique.Crypt
    | "mprotect" -> Ok Technique.Mprotect
    | s -> Error (`Msg (Printf.sprintf "unknown technique %S" s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Technique.name t))

let policy_conv =
  let parse = function
    | "call-ret" -> Ok Instr.At_call_ret
    | "indirect" -> Ok Instr.At_indirect_branches
    | "syscall" -> Ok Instr.At_syscalls
    | "safe-accesses" -> Ok Instr.At_safe_accesses
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | Instr.At_call_ret -> "call-ret"
      | Instr.At_indirect_branches -> "indirect"
      | Instr.At_syscalls -> "syscall"
      | Instr.At_safe_accesses -> "safe-accesses")
  in
  Arg.conv (parse, print)

let kind_conv =
  let parse = function
    | "r" -> Ok Instr.Reads
    | "w" -> Ok Instr.Writes
    | "rw" -> Ok Instr.Reads_and_writes
    | s -> Error (`Msg (Printf.sprintf "unknown access kind %S" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with Instr.Reads -> "r" | Instr.Writes -> "w" | Instr.Reads_and_writes -> "rw")
  in
  Arg.conv (parse, print)

let bench_arg idx =
  Arg.(
    required
    & pos idx (some string) None
    & info [] ~docv:"BENCHMARK" ~doc:"Workload name, e.g. mcf or 403.gcc.")

let iterations_arg =
  Arg.(value & opt int 40 & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Workload loop iterations.")

(* --- list --- *)

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Workloads.Spec2006.names;
    print_endline "techniques: sfi mpx mpk mpk-integrity vmfunc crypt mprotect";
    print_endline "policies (domain-based): call-ret indirect syscall safe-accesses";
    print_endline "access kinds (address-based): r w rw"
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and techniques") Term.(const run $ const ())

let read_file file =
  let ic = try open_in file with Sys_error e -> Printf.eprintf "%s\n" e; exit 1 in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- report --- *)

let find_bench name =
  try Workloads.Spec2006.find name
  with Not_found ->
    Printf.eprintf "unknown benchmark %S (try 'list')\n" name;
    exit 1

let report_cmd =
  let fastpath_report bench technique policy kind iterations top json_out flame_out
      speedscope_out =
    let prof = find_bench bench in
    let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
    let p = Workloads.Runner.prepare_instrumented ~iterations prof cfg in
    Fastprof.install p;
    (match Framework.run p with
    | X86sim.Cpu.Halted -> ()
    | X86sim.Cpu.Out_of_fuel ->
      Printf.eprintf "%s did not terminate\n" bench;
      exit 1);
    let fp = Fastprof.capture ~workload:prof.Workloads.Profile.name p in
    Printf.printf
      "%s under %s (%d iterations), engine: fast path (translated blocks, no hooks)\n"
      prof.Workloads.Profile.name (Technique.name technique) iterations;
    Printf.printf
      "%.0f cycles over %d instructions; %d blocks compiled, %d cache invalidations\n\n"
      fp.Fastprof.p_cycles fp.Fastprof.p_insns fp.Fastprof.p_compiles
      fp.Fastprof.p_invalidations;
    print_endline "CPI stack (cycles per attribution row and class):";
    print_string (Report.cpi_table fp);
    Printf.printf "\naccounted %.0f of %.0f total cycles\n" (Fastprof.total_cycles fp)
      fp.Fastprof.p_cycles;
    Printf.printf "\nhot blocks (top %d):\n" top;
    print_string (Report.hot_blocks_table ~top fp);
    Printf.printf "\nhot edges (top %d):\n" top;
    print_string (Report.hot_edges_table ~top fp);
    Printf.printf "\n%s\n" (Report.trace_summary fp);
    if fp.Fastprof.p_traces <> [] then begin
      Printf.printf "top traces (top %d, by cycles):\n" top;
      print_string (Report.trace_table ~top fp)
    end;
    (match json_out with
    | None -> ()
    | Some "-" -> print_endline (Ms_util.Json.to_string ~pretty:true (Fastprof.to_json fp))
    | Some file ->
      Ms_util.Json.to_file file (Fastprof.to_json fp);
      Printf.printf "\nprofile written to %s\n" file);
    (match flame_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Ms_util.Flamegraph.emit_collapsed (Fastprof.stacks fp));
      close_out oc;
      Printf.printf "collapsed stacks written to %s (feed to flamegraph.pl)\n" file);
    match speedscope_out with
    | None -> ()
    | Some file ->
      Ms_util.Json.to_file file
        (Ms_util.Flamegraph.to_speedscope
           ~name:(Printf.sprintf "%s/%s" prof.Workloads.Profile.name (Technique.name technique))
           ~unit:"none" (Fastprof.stacks fp));
      Printf.printf "speedscope profile written to %s\n" file
  in
  (* N vCPUs, one shared machine: per-core CPI stacks plus the machine
     rollup (Fastprof.merge) — cycles/counters sum, shared-tier numbers
     counted once. *)
  let fastpath_report_smp bench technique policy kind iterations vcpus top json_out =
    let prof = find_bench bench in
    let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
    let s =
      try Workloads.Runner.prepare_smp_instrumented ~iterations ~vcpus prof cfg
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    Fastprof.install_smp s;
    (match Framework.run_smp s with
    | X86sim.Cpu.Halted -> ()
    | X86sim.Cpu.Out_of_fuel ->
      Printf.eprintf "%s did not terminate\n" bench;
      exit 1);
    let per_core = Fastprof.capture_smp ~workload:prof.Workloads.Profile.name s in
    let total = Fastprof.merge per_core in
    Printf.printf
      "%s under %s on %d vCPUs (%d iterations each), engine: fast path\n\n"
      prof.Workloads.Profile.name (Technique.name technique) vcpus iterations;
    List.iteri
      (fun core fp ->
        Printf.printf "core %d: %.0f cycles over %d instructions\n" core fp.Fastprof.p_cycles
          fp.Fastprof.p_insns;
        print_string (Report.cpi_table fp);
        print_newline ())
      per_core;
    Printf.printf "machine total: %.0f cycles (summed) over %d instructions\n"
      total.Fastprof.p_cycles total.Fastprof.p_insns;
    print_string (Report.cpi_table total);
    Printf.printf "\n%s\n" (Report.trace_summary total);
    match json_out with
    | None -> ()
    | Some "-" -> print_endline (Ms_util.Json.to_string ~pretty:true (Fastprof.to_json total))
    | Some file ->
      Ms_util.Json.to_file file (Fastprof.to_json total);
      Printf.printf "\nmachine-total profile written to %s\n" file
  in
  let run bench technique policy kind iterations vcpus top json_out flame_out speedscope_out =
    match bench with
    | None -> Report.print_all ()
    | Some bench ->
      if vcpus > 1 then
        fastpath_report_smp bench technique policy kind iterations vcpus top json_out
      else
        fastpath_report bench technique policy kind iterations top json_out flame_out
          speedscope_out
  in
  let bench =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Workload to profile on the fast path; omit for the survey tables.")
  in
  let technique =
    Arg.(value & opt technique_conv (Technique.Mpk Mpk.Pkey.No_access)
         & info [ "technique"; "t" ] ~docv:"TECH" ~doc:"Isolation technique (see 'list').")
  in
  let policy =
    Arg.(value & opt policy_conv Instr.At_call_ret & info [ "policy"; "p" ] ~docv:"POLICY"
           ~doc:"Domain-switch policy for domain-based techniques.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for address-based techniques (r/w/rw).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot block/edge tables.")
  in
  let vcpus =
    Arg.(value & opt int 1 & info [ "vcpus" ] ~docv:"N"
           ~doc:"Run N copies of the workload on an N-core shared-memory machine and print \
                 per-core CPI stacks plus the machine rollup (default 1 = single-core report).")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the fast-path profile as JSON ('-' for stdout); input of perf-diff.")
  in
  let flame_out =
    Arg.(value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE"
           ~doc:"Write the CPI stacks as collapsed/folded flamegraph lines.")
  in
  let speedscope_out =
    Arg.(value & opt (some string) None & info [ "speedscope" ] ~docv:"FILE"
           ~doc:"Write the CPI stacks as a speedscope JSON profile.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print the survey tables (paper Tables 1-3); with a BENCHMARK, run it on the \
          fast path and print the always-on counter report (CPI stack per gate site, hot \
          blocks, hot edges) with optional flamegraph/speedscope/JSON export")
    Term.(const run $ bench $ technique $ policy $ kind $ iterations_arg $ vcpus $ top
          $ json_out $ flame_out $ speedscope_out)

(* --- perf-diff --- *)

let perf_diff_cmd =
  let run before_file after_file threshold check =
    let load file =
      try Fastprof.of_json (Ms_util.Json.of_string (read_file file)) with
      | Ms_util.Json.Parse_error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
      | Invalid_argument e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    in
    let before = load before_file and after = load after_file in
    Printf.printf "before: %s/%s  %.0f cycles\nafter:  %s/%s  %.0f cycles  (%.3fx)\n"
      before.Fastprof.p_workload before.Fastprof.p_technique before.Fastprof.p_cycles
      after.Fastprof.p_workload after.Fastprof.p_technique after.Fastprof.p_cycles
      (if before.Fastprof.p_cycles > 0.0 then after.Fastprof.p_cycles /. before.Fastprof.p_cycles
       else nan);
    match Fastprof.diff ~threshold ~before ~after with
    | [] -> Printf.printf "no per-site regressions above %.1f%%\n" (100.0 *. threshold)
    | regs ->
      Printf.printf "%d per-site regression(s) above %.1f%%:\n" (List.length regs)
        (100.0 *. threshold);
      List.iter
        (fun (r : Fastprof.regression) ->
          Printf.printf "  %-24s %10.0f -> %10.0f cycles  (%s)\n"
            (if r.Fastprof.rg_rip < 0 then r.Fastprof.rg_label
             else Printf.sprintf "%s@%d" r.Fastprof.rg_label r.Fastprof.rg_rip)
            r.Fastprof.rg_before r.Fastprof.rg_after
            (if r.Fastprof.rg_ratio = infinity then "new"
             else Printf.sprintf "%.3fx" r.Fastprof.rg_ratio))
        regs;
      if check then exit 1
  in
  let before_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BEFORE" ~doc:"Baseline profile JSON (from 'report BENCH --json').")
  in
  let after_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"AFTER" ~doc:"Current profile JSON to compare against BEFORE.")
  in
  let threshold =
    Arg.(value & opt float 0.05 & info [ "threshold" ] ~docv:"FRACTION"
           ~doc:"Relative per-site cycle growth that counts as a regression (default 0.05).")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Exit 1 if any regression is found.")
  in
  Cmd.v
    (Cmd.info "perf-diff"
       ~doc:"Compare two fast-path profile JSONs and flag per-site cycle regressions")
    Term.(const run $ before_arg $ after_arg $ threshold $ check)

(* --- inspect --- *)

let inspect_cmd =
  let run bench iterations =
    let prof = try Workloads.Spec2006.find bench with Not_found ->
      Printf.eprintf "unknown benchmark %S (try 'list')\n" bench;
      exit 1
    in
    let m = Workloads.Synth.generate ~iterations prof in
    let lowered = Ir.Lower.lower m in
    let n_items = List.length lowered.Ir.Lower.mitems in
    let n_access = Instr.count_instrumentable ~kind:Instr.Reads_and_writes lowered.Ir.Lower.mitems in
    Printf.printf "profile %s: %d IR instructions, %d machine items, %d instrumentable accesses\n"
      prof.Workloads.Profile.name (Ir.Ir_types.instr_count m) n_items n_access;
    Printf.printf "switch points: call/ret %d, indirect %d, syscall %d\n"
      (Instr.count_switch_points ~policy:Instr.At_call_ret lowered.Ir.Lower.mitems)
      (Instr.count_switch_points ~policy:Instr.At_indirect_branches lowered.Ir.Lower.mitems)
      (Instr.count_switch_points ~policy:Instr.At_syscalls lowered.Ir.Lower.mitems);
    print_endline "--- IR (first function) ---";
    (match m.Ir.Ir_types.funcs with
    | f :: _ -> print_string (Ir.Printer.func_to_string f)
    | [] -> ())
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Show a workload's IR and instrumentation surface")
    Term.(const run $ bench_arg 0 $ iterations_arg)

(* --- run --- *)

let run_cmd =
  let run bench technique policy kind iterations stats =
    let prof = try Workloads.Spec2006.find bench with Not_found ->
      Printf.eprintf "unknown benchmark %S (try 'list')\n" bench;
      exit 1
    in
    let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
    let base = Workloads.Runner.run_baseline ~iterations prof in
    let inst = Workloads.Runner.run_with ~iterations prof cfg in
    Printf.printf "%s under %s:\n" prof.Workloads.Profile.name (Technique.name technique);
    Printf.printf "  baseline      %10.0f cycles  (%d insns, ipc %.2f)\n"
      base.Workloads.Runner.cycles base.Workloads.Runner.insns base.Workloads.Runner.ipc;
    Printf.printf "  instrumented  %10.0f cycles  (%d insns, %d switches)\n"
      inst.Workloads.Runner.cycles inst.Workloads.Runner.insns
      inst.Workloads.Runner.switch_count;
    Printf.printf "  overhead      %10.3fx\n"
      (inst.Workloads.Runner.cycles /. base.Workloads.Runner.cycles);
    if stats then begin
      (* Re-run the instrumented build and dump its machine-level summary. *)
      let lowered = Workloads.Synth.lowered ~iterations prof in
      let p = Framework.prepare cfg lowered in
      ignore (Framework.run p);
      print_endline "--- instrumented run ---";
      X86sim.Perf_report.print p.Framework.cpu
    end
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the machine-level performance summary.")
  in
  let technique =
    Arg.(value & opt technique_conv Technique.Mpx & info [ "technique"; "t" ] ~docv:"TECH"
           ~doc:"Isolation technique (see 'list').")
  in
  let policy =
    Arg.(value & opt policy_conv Instr.At_call_ret & info [ "policy"; "p" ] ~docv:"POLICY"
           ~doc:"Domain-switch policy for domain-based techniques.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for address-based techniques (r/w/rw).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Measure one workload under one technique")
    Term.(const run $ bench_arg 0 $ technique $ policy $ kind $ iterations_arg $ stats)

(* --- profile --- *)

let profile_cmd =
  let run bench workload technique policy kind iterations json_out trace_out =
    let name =
      match workload, bench with
      | Some w, _ -> w
      | None, Some b -> b
      | None, None ->
        Printf.eprintf "profile: name a workload (positional or --workload)\n";
        exit 1
    in
    let prof = try Workloads.Spec2006.find name with Not_found ->
      Printf.eprintf "unknown benchmark %S (try 'list')\n" name;
      exit 1
    in
    let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
    let base = Workloads.Runner.run_baseline ~iterations prof in
    (* The profiler's hooks force the CPU off its translated fast loop
       onto the per-step interpreter; measure what that observation
       costs in host time by running the identical instrumented build
       once without hooks first. *)
    let p_fast = Workloads.Runner.prepare_instrumented ~iterations prof cfg in
    let t0 = Unix.gettimeofday () in
    let fast_status = Framework.run p_fast in
    let fast_s = Unix.gettimeofday () -. t0 in
    let p = Workloads.Runner.prepare_instrumented ~iterations prof cfg in
    let profiler = Profiler.attach p in
    let t0 = Unix.gettimeofday () in
    (match (Framework.run p, fast_status) with
    | X86sim.Cpu.Halted, X86sim.Cpu.Halted -> ()
    | _ ->
      Printf.eprintf "%s did not terminate\n" prof.Workloads.Profile.name;
      exit 1);
    let hooked_s = Unix.gettimeofday () -. t0 in
    Profiler.stop profiler;
    let inst_cycles = X86sim.Cpu.cycles p.Framework.cpu in
    let overhead = inst_cycles /. base.Workloads.Runner.cycles in
    Printf.printf "%s under %s (%d iterations): %.0f cycles, overhead %.3fx\n"
      prof.Workloads.Profile.name (Technique.name technique) iterations inst_cycles overhead;
    Printf.printf
      "engine: hooked interpreter (step/event hooks attached); observation cost %.1fx vs \
       the fast path (%.3fs hooked, %.3fs fast)\n\n"
      (if fast_s > 0.0 then hooked_s /. fast_s else nan)
      hooked_s fast_s;
    print_string (Report.site_table profiler);
    let spans = Profiler.spans profiler in
    if spans <> [] then begin
      let h = Profiler.residency_histogram profiler in
      Printf.printf "\n%d domain residencies (%d unmatched exits): cycles p50 %.0f, p95 %.0f, p99 %.0f\n"
        (List.length spans) (Profiler.unmatched_exits profiler)
        (Ms_util.Metrics.p50 h) (Ms_util.Metrics.p95 h) (Ms_util.Metrics.p99 h)
    end;
    let full_json () =
      match Profiler.to_json profiler with
      | Ms_util.Json.Obj fields ->
        Ms_util.Json.Obj
          (("workload", Ms_util.Json.String prof.Workloads.Profile.name)
           :: ("iterations", Ms_util.Json.Int iterations)
           :: ("baseline_cycles", Ms_util.Json.Float base.Workloads.Runner.cycles)
           :: ("overhead", Ms_util.Json.Float overhead)
           :: fields)
      | other -> other
    in
    (match json_out with
    | None -> ()
    | Some "-" -> print_endline (Ms_util.Json.to_string ~pretty:true (full_json ()))
    | Some file ->
      Ms_util.Json.to_file file (full_json ());
      Printf.printf "\nprofile written to %s\n" file);
    match trace_out with
    | None -> ()
    | Some file ->
      Ms_util.Json.to_file file (Profiler.trace_json profiler);
      Printf.printf "trace written to %s (load in chrome://tracing or Perfetto)\n" file
  in
  let bench =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Workload name, e.g. mcf or 403.gcc.")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~docv:"BENCHMARK"
           ~doc:"Workload name (alternative to the positional argument).")
  in
  let technique =
    Arg.(value & opt technique_conv (Technique.Mpk Mpk.Pkey.No_access)
         & info [ "technique"; "t" ] ~docv:"TECH" ~doc:"Isolation technique (see 'list').")
  in
  let policy =
    Arg.(value & opt policy_conv Instr.At_call_ret & info [ "policy"; "p" ] ~docv:"POLICY"
           ~doc:"Domain-switch policy for domain-based techniques.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for address-based techniques (r/w/rw).")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full profile as JSON ('-' for stdout).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write domain-residency spans as Chrome trace-event JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one workload under one technique with the gate-site profiler attached and print \
          the per-site attribution table (crossings, checks, cycles, misses)")
    Term.(const run $ bench $ workload $ technique $ policy $ kind $ iterations_arg $ json_out
          $ trace_out)

(* --- disasm --- *)

let disasm_cmd =
  let run bench technique kind lines =
    let prof = try Workloads.Spec2006.find bench with Not_found ->
      Printf.eprintf "unknown benchmark %S (try 'list')\n" bench;
      exit 1
    in
    let lowered = Workloads.Synth.lowered ~iterations:2 prof in
    let items =
      match technique with
      | None -> Memsentry.Instr.strip lowered.Ir.Lower.mitems
      | Some t ->
        let cfg = Framework.config ~address_kind:kind t in
        let p = Framework.prepare cfg lowered in
        ignore p.Framework.program;
        (* Re-derive the item list for printing (prepare assembled it). *)
        (match t with
        | Technique.Sfi -> Instr.address_based ~check:Instr_sfi.check ~kind lowered.Ir.Lower.mitems
        | Technique.Mpx -> Instr.address_based ~check:Instr_mpx.check ~kind lowered.Ir.Lower.mitems
        | _ ->
          Printf.eprintf "disasm supports address-based techniques (sfi/mpx) or none\n";
          exit 1)
    in
    let text = X86sim.Asm.print_items items in
    let all = String.split_on_char '\n' text in
    List.iteri (fun i l -> if i < lines then print_endline l) all;
    if List.length all > lines then Printf.printf "... (%d more lines)\n" (List.length all - lines)
  in
  let technique =
    Arg.(value & opt (some technique_conv) None & info [ "technique"; "t" ] ~docv:"TECH"
           ~doc:"Instrument before disassembling (sfi or mpx); omit for the plain lowering.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for the instrumentation (r/w/rw).")
  in
  let lines =
    Arg.(value & opt int 60 & info [ "lines" ] ~docv:"N" ~doc:"How many lines to print.")
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload, optionally after instrumentation")
    Term.(const run $ bench_arg 0 $ technique $ kind $ lines)

(* --- trace --- *)

let trace_cmd =
  let run bench last kind_filter =
    let prof = try Workloads.Spec2006.find bench with Not_found ->
      Printf.eprintf "unknown benchmark %S (try 'list')\n" bench;
      exit 1
    in
    let lowered = Workloads.Synth.lowered ~iterations:2 prof in
    let p = Framework.prepare_baseline lowered in
    let filter =
      match kind_filter with
      | "all" -> fun _ -> true
      | "mem" -> fun i -> X86sim.Insn.is_mem_read i || X86sim.Insn.is_mem_write i
      | "branch" -> (
        fun i ->
          match i with
          | X86sim.Insn.Call _ | X86sim.Insn.Call_r _ | X86sim.Insn.Ret | X86sim.Insn.Jmp _
          | X86sim.Insn.Jcc _ | X86sim.Insn.Jmp_r _ -> true
          | _ -> false)
      | other ->
        Printf.eprintf "unknown filter %S (all|mem|branch)\n" other;
        exit 1
    in
    let tracer = X86sim.Tracer.attach ~capacity:last ~filter p.Framework.cpu in
    ignore (Framework.run p);
    X86sim.Tracer.detach tracer;
    Printf.printf "%d matching instructions executed; last %d:\n" (X86sim.Tracer.total tracer)
      (List.length (X86sim.Tracer.entries tracer));
    print_endline (X86sim.Tracer.to_string tracer)
  in
  let last =
    Arg.(value & opt int 30 & info [ "last" ] ~docv:"N" ~doc:"Ring-buffer size / lines shown.")
  in
  let filt =
    Arg.(value & opt string "all" & info [ "filter" ] ~docv:"F" ~doc:"all, mem, or branch.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Run a workload and show the tail of its execution")
    Term.(const run $ bench_arg 0 $ last $ filt)

(* --- verify --- *)

let verify_cmd =
  let run bench asm technique policy kind iterations lints =
    let name, report =
      match asm with
      | Some file ->
        let prog = X86sim.Asm.parse_program (read_file file) in
        let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
        (match Framework.policy_of_config cfg with
        | None ->
          Printf.eprintf "technique %s has no static verification policy\n"
            (Technique.name technique);
          exit 1
        | Some pol -> (file, Gate_analysis.analyze ~kind ~policy:pol prog))
      | None ->
        let bench =
          match bench with
          | Some b -> b
          | None ->
            Printf.eprintf "verify: name a benchmark or pass --asm FILE\n";
            exit 1
        in
        let prof = try Workloads.Spec2006.find bench with Not_found ->
          Printf.eprintf "unknown benchmark %S (try 'list')\n" bench;
          exit 1
        in
        let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
        let lowered = Workloads.Synth.lowered ~iterations prof in
        let p = Framework.prepare cfg lowered in
        (match Framework.verify_prepared p with
        | None ->
          Printf.eprintf "technique %s has no static verification policy\n"
            (Technique.name technique);
          exit 1
        | Some report -> (prof.Workloads.Profile.name, report))
    in
    let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
    Printf.printf "%s under %s (%s):\n" name (Technique.name technique)
      (Gate_analysis.policy_name (Option.get (Framework.policy_of_config cfg)));
    Format.printf "%a" Gate_analysis.pp_report
      (if lints then report else { report with Gate_analysis.lints = [] });
    if report.Gate_analysis.violations <> [] then exit 1
  in
  let bench =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Workload name, e.g. mcf or 403.gcc.")
  in
  let asm =
    Arg.(value & opt (some string) None & info [ "asm" ] ~docv:"FILE"
           ~doc:"Verify this assembly file as-is instead of instrumenting a workload.")
  in
  let technique =
    Arg.(value & opt technique_conv Technique.Mpx & info [ "technique"; "t" ] ~docv:"TECH"
           ~doc:"Isolation technique to instrument with and verify against.")
  in
  let policy =
    Arg.(value & opt policy_conv Instr.At_safe_accesses & info [ "policy"; "p" ] ~docv:"POLICY"
           ~doc:"Domain-switch policy for domain-based techniques.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for address-based techniques (r/w/rw).")
  in
  let lints =
    Arg.(value & flag & info [ "lints" ] ~doc:"Also print non-fatal lint findings.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify a workload's instrumented output (NaCl-style for address-based \
          techniques, ERIM-style gate integrity for domain-based ones); exit 1 on violations")
    Term.(const run $ bench $ asm $ technique $ policy $ kind $ iterations_arg $ lints)

(* --- optimize --- *)

let optimize_cmd =
  let run bench asm technique policy kind iterations check stats =
    let failed = ref false in
    (match asm with
    | Some file ->
      (* Instrument + optimize a raw assembly file (address-based only). *)
      let items = X86sim.Asm.parse (read_file file) in
      let mitems =
        List.map
          (fun item ->
            let cls =
              match item with
              | X86sim.Program.I i
                when X86sim.Insn.is_mem_read i || X86sim.Insn.is_mem_write i -> (
                match i with
                | X86sim.Insn.Load _ | X86sim.Insn.Store _ | X86sim.Insn.Store_i _
                | X86sim.Insn.Movdqa_load _ | X86sim.Insn.Movdqa_store _ ->
                  Ir.Lower.Data_access
                | _ -> Ir.Lower.Plain)
              | _ -> Ir.Lower.Plain
            in
            { Ir.Lower.item; cls; safe = false })
          items
      in
      let tname = Technique.name technique in
      let (items, sm), pol =
        match technique with
        | Technique.Sfi ->
          ( Instr.address_based_sites ~check:Instr_sfi.check ~kind ~technique:tname mitems,
            Gate_analysis.Sfi_policy )
        | Technique.Mpx ->
          ( Instr.address_based_sites ~check:Instr_mpx.check ~kind ~technique:tname mitems,
            Gate_analysis.Mpx_policy )
        | Technique.Isboxing ->
          ( Instr.address_based_lea32_sites ~kind ~technique:tname mitems,
            Gate_analysis.Isboxing_policy )
        | _ ->
          Printf.eprintf "optimize --asm supports address-based techniques (sfi/mpx/isboxing)\n";
          exit 1
      in
      (try
         let r = Gate_opt.optimize ~policy:pol ~kind items sm in
         Format.printf "%s under %s: %a@." file tname Gate_opt.pp_stats r.Gate_opt.stats;
         if stats then print_string (X86sim.Asm.print_items r.Gate_opt.items);
         if r.Gate_opt.report.Gate_analysis.violations <> [] then begin
           Format.printf "%a" Gate_analysis.pp_report r.Gate_opt.report;
           failed := true
         end
       with Gate_opt.Rejected msg ->
         Printf.eprintf "%s\n" msg;
         failed := true)
    | None ->
      let bench =
        match bench with
        | Some b -> b
        | None ->
          Printf.eprintf "optimize: name a benchmark, or pass --asm FILE\n";
          exit 1
      in
      let prof = find_bench bench in
      let cfg = Framework.config ~address_kind:kind ~switch_policy:policy technique in
      (* One optimized build: run it under the profiler, re-verify it, and
         cross-validate the static cost model against the dynamic counts. *)
      (try
         let p = Workloads.Runner.prepare_instrumented ~iterations ~optimize:true prof cfg in
         let profiler = Profiler.attach p in
         (match Framework.run p with
         | X86sim.Cpu.Halted -> ()
         | X86sim.Cpu.Out_of_fuel -> failwith "optimized program did not terminate");
         Profiler.stop profiler;
         let model = Cost_model.predict p.Framework.program p.Framework.sitemap in
         let validation = Cost_model.validate model profiler in
         let violations =
           match Framework.verify_prepared p with
           | Some r -> List.length r.Gate_analysis.violations
           | None -> 0
         in
         (match p.Framework.opt_stats with
         | Some s ->
           Format.printf "%s under %s: %a@." prof.Workloads.Profile.name
             (Technique.name technique) Gate_opt.pp_stats s
         | None ->
           Printf.printf "%s under %s: technique has no optimization policy\n"
             prof.Workloads.Profile.name (Technique.name technique));
         Printf.printf
           "dynamic: %d checks, %d crossings; cost model: %d exact, %d bounded, %d out of \
            bounds\n"
           (Profiler.total_checks profiler)
           (Profiler.total_crossings profiler)
           validation.Cost_model.n_exact validation.Cost_model.n_bounded
           validation.Cost_model.n_violated;
         if stats then Format.printf "%a@." Cost_model.pp model;
         if violations > 0 || validation.Cost_model.n_violated > 0 then failed := true
       with Gate_opt.Rejected msg ->
         Printf.eprintf "%s\n" msg;
         failed := true));
    if check && !failed then exit 1
  in
  let bench =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Workload name, e.g. mcf or 403.gcc.")
  in
  let asm =
    Arg.(value & opt (some string) None & info [ "asm" ] ~docv:"FILE"
           ~doc:"Instrument and optimize this assembly file (address-based techniques).")
  in
  let technique =
    Arg.(value & opt technique_conv Technique.Sfi & info [ "technique"; "t" ] ~docv:"TECH"
           ~doc:"Isolation technique (see 'list').")
  in
  let policy =
    Arg.(value & opt policy_conv Instr.At_safe_accesses & info [ "policy"; "p" ] ~docv:"POLICY"
           ~doc:"Domain-switch policy for domain-based techniques.")
  in
  let kind =
    Arg.(value & opt kind_conv Instr.Reads_and_writes & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Access kind for address-based techniques (r/w/rw).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit non-zero if the optimized output has any verification violation or the \
                 cost model mis-predicts a dynamic count.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the per-site cost-model table (or the optimized assembly with --asm).")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the check-motion optimizer (dataflow-proven elimination, loop hoisting, gate \
          coalescing) on instrumented output, re-verify it, and cross-validate the static cost \
          model against the profiler")
    Term.(const run $ bench $ asm $ technique $ policy $ kind $ iterations_arg $ check $ stats)

(* --- attacks --- *)

let attacks_cmd =
  let run entropy = Attacks.Harness.print_table (Attacks.Harness.run_all ~entropy_bits:entropy ()) in
  let entropy =
    Arg.(value & opt int 16 & info [ "entropy" ] ~docv:"BITS"
           ~doc:"ASLR entropy of the information-hiding victim.")
  in
  Cmd.v (Cmd.info "attacks" ~doc:"Run the threat-model experiment") Term.(const run $ entropy)

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let () =
  (* A crude global flag: cmdliner-idiomatic per-command plumbing would
     repeat the term in every subcommand for no benefit here. *)
  setup_logs (Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv);
  let argv =
    Array.of_list (List.filter (fun a -> a <> "-v" && a <> "--verbose") (Array.to_list Sys.argv))
  in
  ignore argv;
  let doc = "deterministic memory isolation for safe regions (MemSentry reproduction)" in
  let info = Cmd.info "memsentry" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            list_cmd; report_cmd; inspect_cmd; run_cmd; profile_cmd; perf_diff_cmd;
            disasm_cmd; trace_cmd; verify_cmd; optimize_cmd; attacks_cmd;
          ]))
