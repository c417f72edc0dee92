(* Server demo: an I/O-bound "TLS terminator" whose session-key table is a
   MemSentry/MPK safe region.

   Two measurements frame the story:
   1. protection cost: instrumenting the server's safe-region accesses
      costs a few percent (I/O dominates — the paper's §6 point);
   2. protection value: between requests, an attacker with a full
      arbitrary-read primitive cannot dump a single session key, even
      knowing exactly where the table lives.

   Run with: dune exec examples/server_demo.exe *)

open X86sim
open Memsentry

let () =
  let prof = Workloads.Servers.find "nginx-like" in

  (* Cost: the request loop under MPK, opening the key table around each
     request's I/O boundary (syscall granularity — the natural placement
     for per-request session handling). *)
  let base = Workloads.Runner.run_baseline ~iterations:30 prof in
  let cfg = Framework.config ~switch_policy:Instr.At_syscalls (Technique.Mpk Mpk.Pkey.No_access) in
  let inst = Workloads.Runner.run_with ~iterations:30 prof cfg in
  Printf.printf "request loop: %.0f -> %.0f cycles (overhead %.1f%%, %d domain switches)\n"
    base.Workloads.Runner.cycles inst.Workloads.Runner.cycles
    ((inst.Workloads.Runner.cycles /. base.Workloads.Runner.cycles -. 1.0) *. 100.0)
    inst.Workloads.Runner.switch_count;

  (* Value: a session-key table in a protected region. *)
  let cpu = Cpu.create () in
  let alloc = Safe_region.create_allocator cpu in
  let table = Annot.saferegion_alloc alloc 256 in
  let rng = Ms_util.Prng.create ~seed:99 in
  for slot = 0 to 31 do
    Mmu.poke64 cpu.Cpu.mmu ~va:(table.Safe_region.va + (8 * slot))
      (Int64.to_int (Int64.shift_right_logical (Ms_util.Prng.next_int64 rng) 2))
  done;
  Instr_mpk.setup cpu ~protection:Mpk.Pkey.No_access [ table ];
  let prim = Attacks.Primitives.create cpu in
  let leaked = ref 0 in
  for slot = 0 to 31 do
    match Attacks.Primitives.try_read prim (table.Safe_region.va + (8 * slot)) with
    | Some _ -> incr leaked
    | None -> ()
  done;
  Printf.printf
    "attacker dumped the session table at its public address: %d/32 keys leaked, %d probes \
     faulted\n"
    !leaked (Attacks.Primitives.crashes prim);
  assert (!leaked = 0);
  print_endline "server demo: cheap for the server, opaque to the attacker"
