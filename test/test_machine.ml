(* Multi-vCPU machine semantics: the shared/per-core split, cross-core
   TLB shootdowns, deterministic scheduling, and the gate-window race
   that separates per-core register gates from shared page-table gates. *)

open X86sim

let secret = 0x5EC12E7

(* --- cross-core unmap visibility (qcheck) ------------------------------ *)

(* Core A spins, munmaps a shared page, then raises a flag; core B records
   (flag, probe) pairs the whole time, surviving faults. Whatever the
   interleaving (spin length, quantum, probe count), two invariants hold:

   - flag observed 1  =>  the probe that followed it faulted: once the
     munmap has retired on A, no probe anywhere may see the page again
     (the shootdown model keeps remote TLBs coherent at retirement; the
     IPI only charges cost and flushes caches);
   - a probe that did NOT fault read the pre-unmap contents (the marker),
     never garbage or a stale remapping. *)
let prop_unmap_race =
  let region = 0x6000_0000
  and flag_va = 0x6010_0000
  and buf = 0x6020_0000
  and marker = 0xAB1DE
  and sentinel = 0x5E17151 in
  QCheck.Test.make ~name:"cross-core munmap: flag set => remote probe faults" ~count:40
    (QCheck.triple (QCheck.int_range 0 300) (QCheck.int_range 1 120) (QCheck.int_range 1 60))
    (fun (spin, quantum, probes) ->
      let page = Physmem.page_size in
      let m = Machine.create ~vcpus:2 () in
      let a = Machine.cpu m 0 and b = Machine.cpu m 1 in
      Mmu.map_range a.Cpu.mmu ~va:region ~len:page ~writable:true;
      Mmu.poke64 a.Cpu.mmu ~va:region marker;
      Mmu.map_range a.Cpu.mmu ~va:flag_va ~len:page ~writable:true;
      let buf_len = (((probes * 16) + page - 1) / page) * page in
      Mmu.map_range a.Cpu.mmu ~va:buf ~len:buf_len ~writable:true;
      let i x = Program.I x in
      Cpu.load_program a
        (Program.assemble
           ([ Program.Label "main"; i (Insn.Mov_ri (Reg.rsi, spin)); Program.Label "aspin" ]
           @ [
               i (Insn.Alu_ri (Insn.Sub, Reg.rsi, 1));
               i (Insn.Jcc (Insn.Gt, Insn.target "aspin"));
               i (Insn.Mov_ri (Reg.rax, Cpu.sys_munmap));
               i (Insn.Mov_ri (Reg.rdi, region));
               i (Insn.Mov_ri (Reg.rsi, page));
               i Insn.Syscall;
               i (Insn.Store_i (Insn.mem_abs flag_va, 1));
               i Insn.Halt;
             ]));
      Cpu.load_program b
        (Program.assemble
           [
             Program.Label "main";
             i (Insn.Mov_ri (Reg.rbx, probes));
             i (Insn.Mov_ri (Reg.rdi, buf));
             Program.Label "bloop";
             i (Insn.Load (Reg.rdx, Insn.mem_abs flag_va));
             i (Insn.Store (Insn.mem ~base:Reg.rdi 0, Reg.rdx));
             i (Insn.Mov_ri (Reg.rcx, sentinel));
             i (Insn.Load (Reg.rcx, Insn.mem_abs region));
             i (Insn.Store (Insn.mem ~base:Reg.rdi 8, Reg.rcx));
             i (Insn.Alu_ri (Insn.Add, Reg.rdi, 16));
             i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
             i (Insn.Jcc (Insn.Gt, Insn.target "bloop"));
             i Insn.Halt;
           ]);
      b.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_skip);
      (match Machine.run ~quantum m with
      | Cpu.Halted -> ()
      | Cpu.Out_of_fuel -> QCheck.Test.fail_report "machine did not halt");
      let ok = ref true in
      for k = 0 to probes - 1 do
        let flag = Mmu.peek64 b.Cpu.mmu ~va:(buf + (16 * k)) in
        let v = Mmu.peek64 b.Cpu.mmu ~va:(buf + (16 * k) + 8) in
        if flag = 1 && v <> sentinel then ok := false;
        if v <> sentinel && v <> marker then ok := false
      done;
      !ok)

(* --- shootdown bookkeeping --------------------------------------------- *)

let shootdown_counted () =
  let m = Machine.create ~vcpus:2 () in
  let a = Machine.cpu m 0 and b = Machine.cpu m 1 in
  let page = Physmem.page_size in
  Mmu.map_range a.Cpu.mmu ~va:0x7000_0000 ~len:page ~writable:true;
  Alcotest.(check int) "no broadcasts yet" 0 (Mmu.shootdown_count a.Cpu.mmu);
  Mmu.unmap_range a.Cpu.mmu ~va:0x7000_0000 ~len:page;
  Alcotest.(check int) "unmap broadcast one shootdown" 1 (Mmu.shootdown_count a.Cpu.mmu);
  Alcotest.(check bool) "remote core has a pending shootdown" true (Mmu.shootdown_pending b.Cpu.mmu);
  Alcotest.(check bool) "initiator is already synced" false (Mmu.shootdown_pending a.Cpu.mmu);
  Alcotest.(check bool) "acknowledge reports delivery" true (Mmu.acknowledge_shootdown b.Cpu.mmu);
  Alcotest.(check bool) "second acknowledge is a no-op" false (Mmu.acknowledge_shootdown b.Cpu.mmu)

(* --- shared mmap cursor ------------------------------------------------ *)

let mmap_cursor_shared () =
  let m = Machine.create ~vcpus:2 () in
  let a = Machine.cpu m 0 and b = Machine.cpu m 1 in
  let va1 = Mmu.mmap_alloc a.Cpu.mmu ~len:8192 ~writable:true in
  let va2 = Mmu.mmap_alloc b.Cpu.mmu ~len:8192 ~writable:true in
  Alcotest.(check bool) "sibling mmaps do not overlap" true (va2 >= va1 + 8192);
  (* Both allocations live in the one shared address space. *)
  Mmu.poke64 a.Cpu.mmu ~va:va2 0xfeed;
  Alcotest.(check int) "cross-core visibility through shared memory" 0xfeed
    (Mmu.peek64 b.Cpu.mmu ~va:va2)

(* --- gate-window race -------------------------------------------------- *)

let wrpkru_race_no_leak () =
  let r =
    Attacks.Thread_spray.race_gate_window ~gate:Attacks.Thread_spray.Wrpkru_gate ~secret ()
  in
  Alcotest.(check int) "per-core PKRU: zero leaks however wide the window" 0
    r.Attacks.Thread_spray.rr_leaks;
  Alcotest.(check int) "every probe faulted" r.Attacks.Thread_spray.rr_probes
    r.Attacks.Thread_spray.rr_faults

let mprotect_race_leaks () =
  let r =
    Attacks.Thread_spray.race_gate_window ~gate:Attacks.Thread_spray.Mprotect_gate ~secret ()
  in
  Alcotest.(check bool) "shared page table: open window leaks to the sibling" true
    (r.Attacks.Thread_spray.rr_leaks > 0);
  Alcotest.(check bool) "closed windows still fault" true (r.Attacks.Thread_spray.rr_faults > 0)

let race_deterministic () =
  let run () =
    Attacks.Thread_spray.race_gate_window ~gate:Attacks.Thread_spray.Mprotect_gate ~secret ()
  in
  Alcotest.(check bool) "two runs byte-identical" true (run () = run ())

(* --- 4-vCPU server run: determinism and aggregation -------------------- *)

let smp_servers_deterministic () =
  let prof = Workloads.Servers.find "nginx-like" in
  let cfg = Memsentry.Framework.config (Memsentry.Technique.Mpk Mpk.Pkey.No_access) in
  let run () = Workloads.Runner.run_with ~iterations:2 ~vcpus:4 prof cfg in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "two 4-vCPU runs identical" true (r1 = r2);
  Alcotest.(check int) "four per-core rows" 4 (Array.length r1.Workloads.Runner.per_core);
  Array.iter
    (fun (c : Workloads.Runner.core_result) ->
      Alcotest.(check bool) "every core made progress" true (c.Workloads.Runner.insns > 0))
    r1.Workloads.Runner.per_core;
  let sum =
    Array.fold_left
      (fun acc (c : Workloads.Runner.core_result) -> acc + c.Workloads.Runner.insns)
      0 r1.Workloads.Runner.per_core
  in
  Alcotest.(check int) "insns is the per-core sum" sum r1.Workloads.Runner.insns;
  Alcotest.(check (float 0.0)) "cycles is the makespan"
    (Array.fold_left
       (fun acc (c : Workloads.Runner.core_result) -> Float.max acc c.Workloads.Runner.cycles)
       0.0 r1.Workloads.Runner.per_core)
    r1.Workloads.Runner.cycles;
  Array.iter
    (fun u -> Alcotest.(check bool) "utilization in (0, 1]" true (u > 0.0 && u <= 1.0))
    r1.Workloads.Runner.utilization

let smp_perf_report_aggregates () =
  let prof = Workloads.Servers.find "redis-like" in
  let cfg = Memsentry.Framework.config (Memsentry.Technique.Mpk Mpk.Pkey.No_access) in
  let p =
    Memsentry.Framework.prepare ~vcpus:2 cfg (Workloads.Synth.lowered ~iterations:2 prof)
  in
  (match Memsentry.Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "smp run out of fuel");
  let cpus = Machine.cpus p.Memsentry.Framework.machine in
  let total = Perf_report.capture_machine cpus in
  let per_core = Array.map Perf_report.capture cpus in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 per_core in
  Alcotest.(check int) "insns sum across cores" (sum (fun r -> r.Perf_report.insns))
    total.Perf_report.insns;
  Alcotest.(check (float 0.0)) "makespan is the slowest core"
    (Array.fold_left (fun acc r -> Float.max acc r.Perf_report.cycles) 0.0 per_core)
    total.Perf_report.cycles;
  (* L3/DRAM live in the shared tier: every per-core report shows the same
     socket-wide numbers, and the machine total counts them once. *)
  Alcotest.(check int) "shared DRAM accesses counted once"
    per_core.(0).Perf_report.dram_accesses total.Perf_report.dram_accesses

(* --- what one Framework.prepare refuses to build ----------------------- *)

(* The VMFUNC hypervisor virtualizes one CPU, SGX is not an
   instrumentation technique, and a machine needs a core: each is an
   [Invalid_argument] at build time, never a silently smaller machine. *)
let prepare_rejects_bad_machines () =
  let lowered = Workloads.Synth.lowered ~iterations:2 (Workloads.Servers.find "redis-like") in
  let rejects what f =
    match f () with
    | (_ : Memsentry.Framework.prepared) -> Alcotest.failf "%s: built a machine" what
    | exception Invalid_argument _ -> ()
  in
  let prepare ~vcpus t () =
    Memsentry.Framework.prepare ~vcpus (Memsentry.Framework.config t) lowered
  in
  rejects "VMFUNC on 2 vCPUs" (prepare ~vcpus:2 Memsentry.Technique.Vmfunc);
  rejects "SGX on 2 vCPUs" (prepare ~vcpus:2 Memsentry.Technique.Sgx);
  rejects "MPK on 0 vCPUs" (prepare ~vcpus:0 (Memsentry.Technique.Mpk Mpk.Pkey.No_access));
  (* One vCPU is the default machine, and VMFUNC builds on it. *)
  ignore (prepare ~vcpus:1 Memsentry.Technique.Vmfunc ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_unmap_race;
    Alcotest.test_case "shootdown broadcast bookkeeping" `Quick shootdown_counted;
    Alcotest.test_case "machine-level mmap cursor" `Quick mmap_cursor_shared;
    Alcotest.test_case "wrpkru gate race: no cross-core leak" `Quick wrpkru_race_no_leak;
    Alcotest.test_case "mprotect gate race: window leaks" `Quick mprotect_race_leaks;
    Alcotest.test_case "gate race is deterministic" `Quick race_deterministic;
    Alcotest.test_case "4-vCPU servers: deterministic + aggregated" `Quick
      smp_servers_deterministic;
    Alcotest.test_case "machine perf report aggregates cores" `Quick smp_perf_report_aggregates;
    Alcotest.test_case "prepare rejects VMFUNC/SGX SMP and 0 vCPUs" `Quick
      prepare_rejects_bad_machines;
  ]
