(* The machine-wide memory system: everything below the core boundary.
   One [shared] feeds every vCPU's [t]; a single-core machine is just the
   degenerate case with one view attached. *)
type shared = {
  s_phys : Physmem.t;
  s_pt : Pagetable.t;
  s_pt_gen : int ref; (* Pagetable.generation_cell s_pt, cached *)
  s_l3 : Cache.shared_l3;
  mutable s_ept_list : Ept.t array; (* EPTP list; empty unless virtualized *)
  mutable s_mmap_cursor : int; (* next anonymous-mmap address *)
  mutable s_cores : int; (* views attached so far *)
  s_shoot_gen : int ref;
      (* TLB-shootdown generation: bumped by the initiating core on every
         mapping/permission change; a remote core whose [shoot_seen] lags
         has a pending IPI to acknowledge (flush TLB + translation cache). *)
  mutable s_shootdowns : int; (* total shootdown broadcasts, telemetry *)
}

type t = {
  (* Aliases into [shared], cached at attach time: the translation hot path
     and a dozen external readers (profilers, vmx, tests) reach physical
     memory and the page table through these names. *)
  phys : Physmem.t;
  pt : Pagetable.t;
  pt_gen_cell : int ref;
  shared : shared;
  core : int; (* this view's core id, 0-based attach order *)
  (* Per-core state proper: what a context switch would save/restore. *)
  tlb : Tlb.t;
  cache : Cache.t; (* private L1/L2 over the shared L3 tier *)
  mutable pkru : int;
  mutable ept_index : int;
  mutable ept_on : bool;
  mutable shoot_seen : int; (* last shootdown generation acknowledged *)
  mutable last_tlb_miss : bool;
  mutable last_lat : int;
  mutable walk_cycles : int;
      (* cumulative page-table-walk latency charged so far — the TLB slice
         of the CPI stack, cross-checkable against Tlb.misses * walk_cost *)
}

let page_size = Physmem.page_size
let page_bits = 12

let create_shared ?max_frames () =
  let phys = Physmem.create ?max_frames () in
  (* The radix tables live in the machine's own frame pool, as a real
     kernel's do. *)
  let pt = Pagetable.create ~phys () in
  {
    s_phys = phys;
    s_pt = pt;
    s_pt_gen = Pagetable.generation_cell pt;
    s_l3 = Cache.create_shared_l3 ();
    s_ept_list = [||];
    s_mmap_cursor = Layout.mmap_base;
    s_cores = 0;
    s_shoot_gen = ref 0;
    s_shootdowns = 0;
  }

let attach shared =
  let core = shared.s_cores in
  shared.s_cores <- core + 1;
  {
    phys = shared.s_phys;
    pt = shared.s_pt;
    pt_gen_cell = shared.s_pt_gen;
    shared;
    core;
    tlb = Tlb.create ();
    cache = Cache.create_core shared.s_l3;
    pkru = 0;
    ept_index = 0;
    ept_on = false;
    shoot_seen = !(shared.s_shoot_gen);
    last_tlb_miss = false;
    last_lat = 0;
    walk_cycles = 0;
  }

let create () = attach (create_shared ())

let core_id t = t.core
let core_count t = t.shared.s_cores
let shootdown_count t = t.shared.s_shootdowns
let ept_list t = t.shared.s_ept_list
let set_ept_list t epts = t.shared.s_ept_list <- epts

let walk_cost t =
  let native = 4 * Pagetable.walk_levels in
  if t.ept_on then native * 5 / 2 else native

(* A mapping or permission change just went live in the shared page table
   (its generation bump already de-validated every core's TLB entries —
   the generation check is part of every probe). What remains to model is
   the IPI protocol around it: the initiator flushes its own TLB
   synchronously, as the kernel does, and bumps the shootdown generation
   so each sibling pays delivery cost + flush when it next runs. The
   initiator marks itself caught up — it never IPIs itself. *)
let shoot t =
  Tlb.flush t.tlb;
  let s = t.shared in
  if s.s_cores > 1 then begin
    incr s.s_shoot_gen;
    s.s_shootdowns <- s.s_shootdowns + 1;
    t.shoot_seen <- !(s.s_shoot_gen)
  end

let shootdown_pending t = t.shoot_seen <> !(t.shared.s_shoot_gen)

let acknowledge_shootdown t =
  if shootdown_pending t then begin
    Tlb.flush t.tlb;
    t.shoot_seen <- !(t.shared.s_shoot_gen);
    true
  end
  else false

let map_page t ~va ~writable =
  let vpn = va lsr page_bits in
  match Pagetable.find t.pt ~vpn with
  | Some pte ->
    if pte.writable <> writable || not pte.readable then
      Pagetable.protect t.pt ~vpn ~readable:true ~writable
  | None ->
    let frame = Physmem.alloc_frame t.phys in
    Pagetable.map t.pt ~vpn ~frame ~writable

let iter_pages ~va ~len f =
  if len <= 0 then invalid_arg "Mmu: length must be positive";
  let first = va lsr page_bits and last = (va + len - 1) lsr page_bits in
  for vpn = first to last do
    f vpn
  done

let map_range t ~va ~len ~writable =
  iter_pages ~va ~len (fun vpn -> map_page t ~va:(vpn lsl page_bits) ~writable)

let unmap_range t ~va ~len =
  iter_pages ~va ~len (fun vpn -> Pagetable.unmap t.pt ~vpn);
  shoot t

let protect_range t ~va ~len ~readable ~writable =
  iter_pages ~va ~len (fun vpn -> Pagetable.protect t.pt ~vpn ~readable ~writable);
  shoot t

let set_pkey_range t ~va ~len ~key =
  iter_pages ~va ~len (fun vpn -> Pagetable.set_pkey t.pt ~vpn ~key);
  shoot t

let mmap_alloc t ~len ~writable =
  if len <= 0 then invalid_arg "Mmu.mmap_alloc: length must be positive";
  let s = t.shared in
  let addr = s.s_mmap_cursor in
  let span = (len + page_size - 1) land lnot (page_size - 1) in
  (* one guard page between allocations *)
  s.s_mmap_cursor <- addr + span + page_size;
  map_range t ~va:addr ~len ~writable;
  addr

let is_mapped t ~va = Pagetable.find t.pt ~vpn:(va lsr page_bits) <> None

(* pkru layout: bit 2k = access-disable, bit 2k+1 = write-disable for key k. *)
let pkey_allows t ~key ~(access : Fault.access) =
  if key = 0 && t.pkru land 3 = 0 then true
  else
    let ad = t.pkru lsr (2 * key) land 1 = 1 in
    let wd = t.pkru lsr ((2 * key) + 1) land 1 = 1 in
    match access with
    | Fault.Read | Fault.Exec -> not ad
    | Fault.Write -> not (ad || wd)

(* Walk the page table (and EPT when on) for [vpn] and install the result
   into the TLB, without materializing pte/hit records: the raw encoded
   leaf entry is decoded field-wise straight into {!Tlb.insert}.
   One call per TLB miss. *)
let fill t ~vpn ~(access : Fault.access) ~pt_gen ~ept_gen =
  let va = vpn lsl page_bits in
  let e = Pagetable.find_entry t.pt ~vpn in
  if not (Pagetable.entry_present e) then
    Fault.raise_fault (Fault.Page_fault { va; access; reason = "not present" });
  let gfn = Pagetable.entry_frame e in
  if t.ept_on then begin
    let ept = t.shared.s_ept_list.(t.ept_index) in
    match Ept.find ept ~gfn with
    | None ->
      Fault.raise_fault
        (Fault.Ept_violation { gpa = gfn lsl page_bits; ept_index = t.ept_index; access })
    | Some (hfn, perm) ->
      if not perm.Ept.readable then
        Fault.raise_fault
          (Fault.Ept_violation { gpa = gfn lsl page_bits; ept_index = t.ept_index; access });
      Tlb.insert t.tlb ~vpn ~ept:t.ept_index ~pt_gen ~ept_gen ~hfn
        ~readable:(Pagetable.entry_readable e)
        ~writable:(Pagetable.entry_writable e && perm.Ept.writable)
        ~pkey:(Pagetable.entry_pkey e)
  end
  else
    Tlb.insert t.tlb ~vpn ~ept:t.ept_index ~pt_gen ~ept_gen ~hfn:gfn
      ~readable:(Pagetable.entry_readable e)
      ~writable:(Pagetable.entry_writable e)
      ~pkey:(Pagetable.entry_pkey e)

(* Allocation-free translation: the result physical address is returned
   directly and the TLB-walk latency is left in [t.last_lat], since this
   runs once per simulated memory access. [@inline always]: one inline
   copy per memory-access entry point (the two 64-bit movers and the two
   16-byte movers) removes a call frame from every simulated memory
   access. The TLB probe inside is itself inlined ({!Tlb.probe}), so the
   hit path runs straight-line from uop to physical address. *)
let[@inline always] translate_va t ~va ~(access : Fault.access) =
  let vpn = va lsr page_bits in
  let pt_gen = !(t.pt_gen_cell) in
  (* With EPT off (the common configuration) the generation is the
     constant 0, read without a call. *)
  let ept_gen = if t.ept_on then Ept.generation t.shared.s_ept_list.(t.ept_index) else 0 in
  (* One fused call on the hit path; after a miss the freshly-filled entry
     sits in the vpn's (direct-mapped) slot, so both arms produce the
     packed entry word and no intermediate record/tuple is materialized. *)
  let info = Tlb.probe t.tlb ~vpn ~ept:t.ept_index ~pt_gen ~ept_gen in
  let info =
    if info >= 0 then begin
      t.last_tlb_miss <- false;
      t.last_lat <- 0;
      info
    end
    else begin
      fill t ~vpn ~access ~pt_gen ~ept_gen;
      t.last_tlb_miss <- true;
      let wc = walk_cost t in
      t.last_lat <- wc;
      t.walk_cycles <- t.walk_cycles + wc;
      Tlb.slot_info t.tlb (Tlb.slot_index t.tlb ~vpn)
    end
  in
  let pkey = (info lsr 2) land 0xF in
  (* Inlined [pkey_allows] fast case (key 0, permissive pkru) so the
     overwhelmingly common access pays no call here. *)
  if (pkey <> 0 || t.pkru land 3 <> 0) && not (pkey_allows t ~key:pkey ~access) then
    Fault.raise_fault (Fault.Pkey_violation { va; key = pkey; access });
  if info land 2 = 0 then
    Fault.raise_fault (Fault.Page_fault { va; access; reason = "PROT_NONE page" });
  (match access with
  | Fault.Write when info land 1 = 0 ->
    Fault.raise_fault (Fault.Page_fault { va; access; reason = "write to read-only page" })
  | Fault.Write | Fault.Read | Fault.Exec -> ());
  ((info lsr 6) lsl page_bits) lor (va land (page_size - 1))

let read64_fast t ~va =
  let pa = translate_va t ~va ~access:Fault.Read in
  t.last_lat <- t.last_lat + Cache.access t.cache ~addr:pa;
  Physmem.read64_trusted t.phys ~frame:(pa lsr page_bits) ~off:(pa land (page_size - 1))

let write64_fast t ~va v =
  let pa = translate_va t ~va ~access:Fault.Write in
  t.last_lat <- t.last_lat + Cache.access t.cache ~addr:pa;
  Physmem.write64_trusted t.phys ~frame:(pa lsr page_bits) ~off:(pa land (page_size - 1)) v

let check_block16 va =
  if va land 15 <> 0 then
    Fault.raise_fault (Fault.Gp_fault (Printf.sprintf "unaligned 16-byte access at 0x%x" va))

(* 16-byte accesses are alignment-checked, so they never cross a page:
   one translation covers the whole block, which is blitted between the
   frame and the caller's buffer without an intermediate one. *)
let read_block16_into t ~va ~dst ~dpos =
  check_block16 va;
  let pa = translate_va t ~va ~access:Fault.Read in
  t.last_lat <- t.last_lat + Cache.access t.cache ~addr:pa;
  Physmem.read_block16_into t.phys ~frame:(pa lsr page_bits) ~off:(pa land (page_size - 1)) ~dst
    ~dpos

let write_block16_from t ~va ~src ~spos =
  check_block16 va;
  let pa = translate_va t ~va ~access:Fault.Write in
  t.last_lat <- t.last_lat + Cache.access t.cache ~addr:pa;
  Physmem.write_block16_from t.phys ~frame:(pa lsr page_bits) ~off:(pa land (page_size - 1)) ~src
    ~spos

(* Raw access path: page-table only, no pkey/EPT/permission checks, no cost.
   Models kernel access and pre-established attacker read/write primitives. *)
let raw_frame t ~va ~access =
  match Pagetable.find t.pt ~vpn:(va lsr page_bits) with
  | Some pte -> pte.frame
  | None -> Fault.raise_fault (Fault.Page_fault { va; access; reason = "not present" })

let peek64 t ~va =
  let f = raw_frame t ~va ~access:Fault.Read in
  Physmem.read64 t.phys ~frame:f ~off:(va land (page_size - 1))

let poke64 t ~va v =
  let f = raw_frame t ~va ~access:Fault.Write in
  Physmem.write64 t.phys ~frame:f ~off:(va land (page_size - 1)) v

let peek_bytes t ~va ~len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    let a = va + i in
    let f = raw_frame t ~va:a ~access:Fault.Read in
    Bytes.set_uint8 out i (Physmem.read8 t.phys ~frame:f ~off:(a land (page_size - 1)))
  done;
  out

let poke_bytes t ~va b =
  for i = 0 to Bytes.length b - 1 do
    let a = va + i in
    let f = raw_frame t ~va:a ~access:Fault.Write in
    Physmem.write8 t.phys ~frame:f ~off:(a land (page_size - 1)) (Bytes.get_uint8 b i)
  done
