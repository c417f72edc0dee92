type t = {
  insns : int;
  cycles : float;
  ipc : float;
  loads : int;
  stores : int;
  calls : int;
  rets : int;
  ind_branches : int;
  syscalls : int;
  bnd_checks : int;
  wrpkrus : int;
  vmfuncs : int;
  vmcalls : int;
  vm_exits : int;
  aes_ops : int;
  faults : int;
  l1_hit_rate : float;
  l2_hit_rate : float;
  l3_hit_rate : float;
  tlb_hit_rate : float;
  dram_accesses : int;
  l1_evictions : int;
  l2_evictions : int;
  l3_evictions : int;
  tlb_evictions : int;
  tlb_walk_cycles : int;
}

(* A level nothing reached served every request it got: report 1.0, not a
   0/0 nan that poisons downstream aggregation. *)
let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

(* Machine-wide rollup. Per-core private state (L1/L2, TLB, counters) sums
   across cores; the L3/DRAM numbers are *shared-tier* counters that every
   core's accessors alias, so they are read once — summing them would
   multiply socket traffic by the core count. Cycles are the makespan (the
   slowest core), matching what a wall clock would see. *)
let capture_machine (cpus : Cpu.t array) =
  if Array.length cpus = 0 then invalid_arg "Perf_report.capture_machine: no cores";
  let sum f = Array.fold_left (fun a c -> a + f c) 0 cpus in
  let ci f = sum (fun (c : Cpu.t) -> f c.Cpu.counters) in
  let insns = ci (fun c -> c.Cpu.insns) in
  let makespan = Array.fold_left (fun a c -> Float.max a (Cpu.cycles c)) 0.0 cpus in
  let l1 = sum (fun c -> Cache.l1_hits c.Cpu.mmu.Mmu.cache)
  and l2 = sum (fun c -> Cache.l2_hits c.Cpu.mmu.Mmu.cache)
  and l3 = Cache.l3_hits cpus.(0).Cpu.mmu.Mmu.cache
  and dram = Cache.dram_accesses cpus.(0).Cpu.mmu.Mmu.cache in
  let tlb_hits = sum (fun c -> Tlb.hits c.Cpu.mmu.Mmu.tlb)
  and tlb_misses = sum (fun c -> Tlb.misses c.Cpu.mmu.Mmu.tlb) in
  {
    insns;
    cycles = makespan;
    ipc = (if makespan > 0.0 then float_of_int insns /. makespan else 0.0);
    loads = ci (fun c -> c.Cpu.loads);
    stores = ci (fun c -> c.Cpu.stores);
    calls = ci (fun c -> c.Cpu.calls);
    rets = ci (fun c -> c.Cpu.rets);
    ind_branches = ci (fun c -> c.Cpu.ind_branches);
    syscalls = ci (fun c -> c.Cpu.syscalls);
    bnd_checks = ci (fun c -> c.Cpu.bnd_checks);
    wrpkrus = ci (fun c -> c.Cpu.wrpkrus);
    vmfuncs = ci (fun c -> c.Cpu.vmfuncs);
    vmcalls = ci (fun c -> c.Cpu.vmcalls);
    vm_exits = ci (fun c -> c.Cpu.vm_exits);
    aes_ops = ci (fun c -> c.Cpu.aes_ops);
    faults = ci (fun c -> c.Cpu.faults);
    l1_hit_rate = ratio l1 (l1 + l2 + l3 + dram);
    l2_hit_rate = ratio l2 (l2 + l3 + dram);
    l3_hit_rate = ratio l3 (l3 + dram);
    tlb_hit_rate = ratio tlb_hits (tlb_hits + tlb_misses);
    dram_accesses = dram;
    l1_evictions = sum (fun c -> Cache.l1_evictions c.Cpu.mmu.Mmu.cache);
    l2_evictions = sum (fun c -> Cache.l2_evictions c.Cpu.mmu.Mmu.cache);
    l3_evictions = Cache.l3_evictions cpus.(0).Cpu.mmu.Mmu.cache;
    tlb_evictions = sum (fun c -> Tlb.evictions c.Cpu.mmu.Mmu.tlb);
    tlb_walk_cycles = sum (fun c -> c.Cpu.mmu.Mmu.walk_cycles);
  }

(* One core is the 1-vCPU rollup: every sum has one term. *)
let capture cpu = capture_machine [| cpu |]

let to_string r =
  String.concat "\n"
    [
      Printf.sprintf "instructions   %12d" r.insns;
      Printf.sprintf "cycles         %12.0f   (ipc %.2f)" r.cycles r.ipc;
      Printf.sprintf "loads/stores   %8d / %d" r.loads r.stores;
      Printf.sprintf "calls/rets     %8d / %d   (indirect branches %d)" r.calls r.rets
        r.ind_branches;
      Printf.sprintf "syscalls       %12d" r.syscalls;
      Printf.sprintf "L1 hit rate    %12.1f%%   (L2 %.1f%%, L3 %.1f%%, DRAM accesses %d)"
        (100.0 *. r.l1_hit_rate) (100.0 *. r.l2_hit_rate) (100.0 *. r.l3_hit_rate)
        r.dram_accesses;
      Printf.sprintf "TLB hit rate   %12.1f%%   (%d evictions, %d walk cycles)"
        (100.0 *. r.tlb_hit_rate) r.tlb_evictions r.tlb_walk_cycles;
      Printf.sprintf "evictions      %8d L1 / %d L2 / %d L3" r.l1_evictions r.l2_evictions
        r.l3_evictions;
      Printf.sprintf "protection     %d bndck, %d wrpkru, %d vmfunc, %d vmcall, %d vmexit, %d aes"
        r.bnd_checks r.wrpkrus r.vmfuncs r.vmcalls r.vm_exits r.aes_ops;
      Printf.sprintf "faults         %12d" r.faults;
    ]

let to_json r =
  Ms_util.Json.Obj
    [
      ("insns", Ms_util.Json.Int r.insns);
      ("cycles", Ms_util.Json.Float r.cycles);
      ("ipc", Ms_util.Json.Float r.ipc);
      ("loads", Ms_util.Json.Int r.loads);
      ("stores", Ms_util.Json.Int r.stores);
      ("calls", Ms_util.Json.Int r.calls);
      ("rets", Ms_util.Json.Int r.rets);
      ("ind_branches", Ms_util.Json.Int r.ind_branches);
      ("syscalls", Ms_util.Json.Int r.syscalls);
      ("bnd_checks", Ms_util.Json.Int r.bnd_checks);
      ("wrpkrus", Ms_util.Json.Int r.wrpkrus);
      ("vmfuncs", Ms_util.Json.Int r.vmfuncs);
      ("vmcalls", Ms_util.Json.Int r.vmcalls);
      ("vm_exits", Ms_util.Json.Int r.vm_exits);
      ("aes_ops", Ms_util.Json.Int r.aes_ops);
      ("faults", Ms_util.Json.Int r.faults);
      ("l1_hit_rate", Ms_util.Json.Float r.l1_hit_rate);
      ("l2_hit_rate", Ms_util.Json.Float r.l2_hit_rate);
      ("l3_hit_rate", Ms_util.Json.Float r.l3_hit_rate);
      ("tlb_hit_rate", Ms_util.Json.Float r.tlb_hit_rate);
      ("dram_accesses", Ms_util.Json.Int r.dram_accesses);
      ("l1_evictions", Ms_util.Json.Int r.l1_evictions);
      ("l2_evictions", Ms_util.Json.Int r.l2_evictions);
      ("l3_evictions", Ms_util.Json.Int r.l3_evictions);
      ("tlb_evictions", Ms_util.Json.Int r.tlb_evictions);
      ("tlb_walk_cycles", Ms_util.Json.Int r.tlb_walk_cycles);
    ]

let print cpu = print_endline (to_string (capture cpu))
