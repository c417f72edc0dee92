open X86sim
open Memsentry

type core_result = { cycles : float; insns : int; ipc : float; switch_count : int }

type run_result = {
  cycles : float;
  insns : int;
  ipc : float;
  switch_count : int;
  per_core : core_result array;
  utilization : float array;
  shootdowns : int;
}

let ipc_of insns cycles = if cycles > 0.0 then float_of_int insns /. cycles else 0.0

let core_result (cpu : Cpu.t) : core_result =
  let c = cpu.Cpu.counters in
  {
    cycles = Cpu.cycles cpu;
    insns = c.Cpu.insns;
    ipc = ipc_of c.Cpu.insns (Cpu.cycles cpu);
    switch_count = c.Cpu.wrpkrus + c.Cpu.vmfuncs;
  }

(* The machine's figures: the makespan (slowest core, the wall-clock
   analogue), instructions and gate crossings summed over cores, and
   TLB-shootdown broadcasts machine-wide. On one vCPU these are that
   core's own numbers. *)
let result_of_machine m =
  let per_core = Array.map core_result (Machine.cpus m) in
  let cycles = Machine.max_cycles m and insns = Machine.total_insns m in
  {
    cycles;
    insns;
    ipc = ipc_of insns cycles;
    switch_count = Array.fold_left (fun a (c : core_result) -> a + c.switch_count) 0 per_core;
    per_core;
    utilization =
      Array.map
        (fun (c : core_result) -> if cycles > 0.0 then c.cycles /. cycles else 1.0)
        per_core;
    shootdowns = Mmu.shootdown_count (Machine.cpu m 0).Cpu.mmu;
  }

let finish name (p : Framework.prepared) =
  match Framework.run p with
  | Cpu.Halted -> result_of_machine p.Framework.machine
  | Cpu.Out_of_fuel -> failwith (Printf.sprintf "Runner: %s did not terminate" name)

let run_baseline ?iterations prof =
  let lowered = Synth.lowered ?iterations prof in
  finish prof.Profile.name (Framework.prepare_baseline lowered)

let pool_for (cfg : Framework.config) =
  match cfg.Framework.technique with
  | Technique.Crypt -> Some Ir.Lower.crypt_xmm_pool
  | Technique.Sfi | Technique.Mpx | Technique.Mpk _ | Technique.Vmfunc | Technique.Sgx
  | Technique.Mprotect | Technique.Isboxing -> None

let lowered ?iterations ?region_size prof cfg =
  Synth.lowered ?iterations ?region_size ?xmm_pool:(pool_for cfg) prof

let prepare_instrumented ?iterations ?optimize ?vcpus prof cfg =
  Framework.prepare ?vcpus ?optimize cfg (lowered ?iterations prof cfg)

let run_with ?iterations ?optimize ?vcpus prof cfg =
  finish prof.Profile.name (prepare_instrumented ?iterations ?optimize ?vcpus prof cfg)

let profile ?iterations ?optimize prof (cfg : Framework.config) =
  let p = prepare_instrumented ?iterations ?optimize prof cfg in
  let profiler = Profiler.attach p in
  let r = finish prof.Profile.name p in
  Profiler.stop profiler;
  (profiler, r)

let overhead_of ?iterations ?optimize prof cfg =
  let base = run_baseline ?iterations prof in
  let inst = run_with ?iterations ?optimize prof cfg in
  inst.cycles /. base.cycles

let sweep_row ?iterations prof configs =
  let base = run_baseline ?iterations prof in
  let row =
    List.map
      (fun (cname, cfg) ->
        let r = run_with ?iterations prof cfg in
        (cname, r.cycles /. base.cycles))
      configs
  in
  (prof.Profile.name, row)

(* With [jobs] > 1, profiles are claimed from a shared atomic counter by
   that many worker domains. Every simulation builds its own machine
   (Cpu/Mmu/caches), so rows are independent; results land in an array
   indexed by profile position and are read back in order after all
   domains join, which makes the output bit-identical to a [jobs:1] run
   regardless of scheduling. *)
let sweep ?iterations ?(jobs = 1) profiles configs =
  if jobs <= 1 then List.map (fun prof -> sweep_row ?iterations prof configs) profiles
  else begin
    let profs = Array.of_list profiles in
    let n = Array.length profs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (sweep_row ?iterations profs.(i) configs);
          claim ()
        end
      in
      claim ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list
      (Array.map (function Some row -> row | None -> assert false) results)
  end

let geomean_overheads rows =
  match rows with
  | [] -> []
  | (_, first) :: _ ->
    List.map
      (fun (cname, _) ->
        let column = List.map (fun (_, row) -> List.assoc cname row) rows in
        (cname, Ms_util.Stats.geomean column))
      first
