type t = {
  shared : Mmu.shared;
  cpus : Cpu.t array;
}

let create ?(vcpus = 1) ?stack_pages ?max_frames () =
  if vcpus < 1 then invalid_arg "Machine.create: need at least one vCPU";
  let shared = Mmu.create_shared ?max_frames () in
  (* Explicit order: core ids are attach order, and stacks derive from
     core ids, so construction must be index order — [Array.init]'s
     application order is unspecified. *)
  let cpu0 = Cpu.create_on ?stack_pages (Mmu.attach shared) in
  let cpus = Array.make vcpus cpu0 in
  for i = 1 to vcpus - 1 do
    cpus.(i) <- Cpu.create_on ?stack_pages (Mmu.attach shared)
  done;
  { shared; cpus }

let vcpus t = Array.length t.cpus
let cpu t i = t.cpus.(i)
let cpus t = t.cpus
let shared t = t.shared

let default_quantum = 1000

(* Take a pending TLB-shootdown interrupt, if any, before the core runs
   its quantum: flush the TLB (via acknowledge), drop the translated-code
   cache (a real shootdown's munmap/mprotect can retarget code pages, and
   the predecoded blocks cache permission-dependent fast paths), and
   charge delivery cost. *)
let deliver_shootdown cpu =
  if Mmu.acknowledge_shootdown cpu.Cpu.mmu then begin
    Cpu.flush_translations cpu;
    let nr = Reg.pipe_none in
    Pipeline.issue cpu.Cpu.pipe ~s1:nr ~s2:nr ~d1:nr ~lat:Cpu.ipi_deliver_cost ~busy:1
      ~serialize:true ~port:Pipeline.p_special
  end

(* Round-robin, deterministically: core 0 runs a quantum, then core 1,
   ... wrapping until every core is halted or out of fuel. Each core's
   fuel consumption is measured as its retired-instruction delta —
   [Cpu.run]'s budget accounting decrements exactly once per retired
   instruction (EPT-retried attempts are cancelled on both sides), so
   chaining quanta is observationally identical to one long run. *)
let interleave ~fuel ~quantum t =
  let n = Array.length t.cpus in
  let remaining = Array.make n fuel in
  let continue = ref true in
  while !continue do
    let progressed = ref false in
    for i = 0 to n - 1 do
      let cpu = t.cpus.(i) in
      if (not cpu.Cpu.halted) && remaining.(i) > 0 then begin
        deliver_shootdown cpu;
        let before = cpu.Cpu.counters.Cpu.insns in
        let status = Cpu.run ~fuel:(min quantum remaining.(i)) cpu in
        let consumed = cpu.Cpu.counters.Cpu.insns - before in
        remaining.(i) <- remaining.(i) - consumed;
        if consumed > 0 || status = Cpu.Halted then progressed := true
      end
    done;
    let live = ref false in
    for i = 0 to n - 1 do
      if (not t.cpus.(i).Cpu.halted) && remaining.(i) > 0 then live := true
    done;
    (* The progress guard can only trip if a core burns zero fuel without
       halting — impossible today, but it turns any future accounting bug
       into termination rather than a hang. *)
    continue := !live && !progressed
  done;
  let all_halted = Array.for_all (fun c -> c.Cpu.halted) t.cpus in
  if all_halted then Cpu.Halted else Cpu.Out_of_fuel

let run ?(fuel = 50_000_000) ?(quantum = default_quantum) t =
  if quantum < 1 then invalid_arg "Machine.run: quantum must be positive";
  if fuel < 0 then invalid_arg "Machine.run: fuel must be non-negative";
  (* A lone core has no one to interleave with (and no sibling to shoot
     down its TLB): its whole fuel is one slice, so no quantum boundary
     splits a block and forces a fresh suffix compile on resume. *)
  if Array.length t.cpus = 1 then Cpu.run ~fuel t.cpus.(0) else interleave ~fuel ~quantum t

let total_insns t = Array.fold_left (fun a c -> a + c.Cpu.counters.Cpu.insns) 0 t.cpus

let max_cycles t =
  Array.fold_left (fun a c -> Float.max a (Cpu.cycles c)) 0.0 t.cpus
