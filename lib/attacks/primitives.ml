open X86sim

type gadget = Raw | Sfi_masked | Mpx_checked | Isboxing_prefixed

type t = { cpu : Cpu.t; gadget : gadget; mutable probes : int; mutable crashes : int }

let create ?(gadget = Raw) cpu = { cpu; gadget; probes = 0; crashes = 0 }

let probes t = t.probes
let crashes t = t.crashes

let effective_addr t va =
  match t.gadget with
  | Raw -> Some va
  | Sfi_masked -> Some (va land Layout.sfi_mask)
  | Isboxing_prefixed -> Some (va land 0xFFFFFFFF)
  | Mpx_checked ->
    (* bndcu against bnd0 as the instrumented victim would execute. *)
    if t.cpu.Cpu.bnd_enabled && va > t.cpu.Cpu.bnd_upper.(Mpx.Bounds.partition_bnd) then None
    else Some va

let try_read t va =
  t.probes <- t.probes + 1;
  match effective_addr t va with
  | None ->
    t.crashes <- t.crashes + 1;
    None
  | Some addr -> (
    match Mmu.read64_fast t.cpu.Cpu.mmu ~va:addr with
    | v -> Some v
    | exception Fault.Fault _ ->
      t.crashes <- t.crashes + 1;
      None)

let try_write t va v =
  t.probes <- t.probes + 1;
  match effective_addr t va with
  | None ->
    t.crashes <- t.crashes + 1;
    false
  | Some addr -> (
    match Mmu.write64_fast t.cpu.Cpu.mmu ~va:addr v with
    | () -> true
    | exception Fault.Fault _ ->
      t.crashes <- t.crashes + 1;
      false)

let is_mapped_oracle t va =
  t.probes <- t.probes + 1;
  Mmu.is_mapped t.cpu.Cpu.mmu ~va

let range_mapped_oracle t ~lo ~hi =
  t.probes <- t.probes + 1;
  let found = ref false in
  Pagetable.iter t.cpu.Cpu.mmu.Mmu.pt (fun vpn _ ->
      let va = vpn * Physmem.page_size in
      if va >= lo && va < hi then found := true);
  !found
