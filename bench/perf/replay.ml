(* Per-layer replays for the traced run.

   One recording run per instance — the interpreter oracle with a
   recording step hook — captures the retired-rip stream and the data
   access stream (kind, virtual address) the program generated. The
   streams are then replayed through one layer at a time, each on a
   freshly prepared copy of the instance, so each layer's host time is
   measured with nothing else running:

   - MMU: [Mmu.read64_fast] / [write64_fast] / [read_block16_into] /
     [write_block16_from], which is translation plus cache, exactly the
     calls the engine makes per access;
   - TLB: [Mmu.translate_va] alone, which also yields the physical
     addresses;
   - cache: [Cache.access] on those physical addresses;
   - pipeline: [Pipeline.issue_packed] / [issue_packed_static] over the
     rip stream, with issue metadata from [Ublock.get] and load latencies
     from the MMU replay. Terminators and serializing instructions are
     issued as plain packed uops, so this replay approximates the
     engine's pipeline work rather than reproducing its cycle count.

   The MMU, TLB and cache replays must reproduce the run's TLB hits and
   misses, walk cycles, per-level cache hits and DRAM accesses exactly;
   a replay whose counts differ is reported invalid ([*.replay_match]). *)

open X86sim

(* Growable int array. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 65536 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* Access stream entries pack [(value lsl 3) lor kind]. The kinds are
   8-byte read and write, 16-byte read and write, then the two switches
   the translation depends on: a wrpkru (value: the new PKRU) and a vmfunc
   (value: the new EPT index). The replay loops match on these numbers. *)
let k_read8 = 0
let k_write8 = 1
let k_read16 = 2
let k_write16 = 3
let k_pkru = 4
let k_ept = 5

type streams = { rips : vec; accs : vec }

(* Step hook run before each instruction executes, with the registers it
   reads its address operands from. Mirrors the order in which
   [Cpu.exec] touches memory. *)
let recorder s (cpu : Cpu.t) (insn : Insn.t) =
  push s.rips cpu.Cpu.rip;
  let g = cpu.Cpu.gpr in
  let ea (m : Insn.mem) =
    (if m.Insn.base >= 0 then g.(m.Insn.base) else 0)
    + (if m.Insn.index >= 0 then g.(m.Insn.index) * m.Insn.scale else 0)
    + m.Insn.disp
  in
  let acc kind v = push s.accs ((v lsl 3) lor kind) in
  let rsp = g.(Reg.rsp) in
  match insn with
  | Insn.Load (_, m) -> acc k_read8 (ea m)
  | Insn.Store (m, _) | Insn.Store_i (m, _) -> acc k_write8 (ea m)
  | Insn.Push _ | Insn.Call _ | Insn.Call_r _ -> acc k_write8 (rsp - 8)
  | Insn.Pop _ | Insn.Ret -> acc k_read8 rsp
  | Insn.Bndmov_store (m, _) ->
    let a = ea m in
    acc k_write8 a;
    acc k_write8 (a + 8)
  | Insn.Bndmov_load (_, m) ->
    let a = ea m in
    acc k_read8 a;
    acc k_read8 (a + 8)
  | Insn.Movdqa_load (_, m) -> acc k_read16 (ea m)
  | Insn.Movdqa_store (m, _) -> acc k_write16 (ea m)
  | Insn.Wrpkru -> acc k_pkru (g.(Reg.rax) land 0xFFFFFFFF)
  | Insn.Vmfunc -> acc k_ept g.(Reg.rcx)
  | _ -> ()

(* Memory-system counts compared between the run and each replay: TLB
   hits, TLB misses, walk cycles, L1/L2/L3 hits, DRAM accesses. *)
let tlb_counts (m : Mmu.t) = [| Tlb.hits m.Mmu.tlb; Tlb.misses m.Mmu.tlb; m.Mmu.walk_cycles |]

let cache_counts c =
  [| Cache.l1_hits c; Cache.l2_hits c; Cache.l3_hits c; Cache.dram_accesses c |]

let mem_counts (m : Mmu.t) = Array.append (tlb_counts m) (cache_counts m.Mmu.cache)

let mmu (m : Mmu.t) (s : streams) lats =
  let buf = Bytes.create 16 in
  let a = s.accs.a in
  for i = 0 to s.accs.n - 1 do
    let x = a.(i) in
    let v = x asr 3 in
    match x land 7 with
    | 0 ->
      ignore (Mmu.read64_fast m ~va:v);
      lats.(i) <- m.Mmu.last_lat
    | 1 ->
      Mmu.write64_fast m ~va:v 0;
      lats.(i) <- m.Mmu.last_lat
    | 2 ->
      Mmu.read_block16_into m ~va:v ~dst:buf ~dpos:0;
      lats.(i) <- m.Mmu.last_lat
    | 3 ->
      Mmu.write_block16_from m ~va:v ~src:buf ~spos:0;
      lats.(i) <- m.Mmu.last_lat
    | 4 -> m.Mmu.pkru <- v
    | _ -> m.Mmu.ept_index <- v
  done

let tlb (m : Mmu.t) (s : streams) pas =
  let a = s.accs.a in
  for i = 0 to s.accs.n - 1 do
    let x = a.(i) in
    let v = x asr 3 in
    match x land 7 with
    | 0 | 2 -> pas.(i) <- Mmu.translate_va m ~va:v ~access:Fault.Read
    | 1 | 3 -> pas.(i) <- Mmu.translate_va m ~va:v ~access:Fault.Write
    | 4 ->
      m.Mmu.pkru <- v;
      pas.(i) <- -1
    | _ ->
      m.Mmu.ept_index <- v;
      pas.(i) <- -1
  done

let cache c pas n =
  for i = 0 to n - 1 do
    let pa = Array.unsafe_get pas i in
    if pa >= 0 then ignore (Cache.access c ~addr:pa)
  done

(* ---- Pipeline replay ---------------------------------------------- *)

let nr = Reg.pipe_none
let pk ?(s1 = nr) ?(s2 = nr) ?(d1 = nr) ~lat port =
  Pipeline.pack ~s1 ~s2 ~s3:nr ~d1 ~d2:nr ~lat ~port
let branch ?s1 () = pk ?s1 ~lat:1 Pipeline.p_branch
let push_meta = pk ~s1:(Reg.pipe_gpr Reg.rsp) ~lat:1 Pipeline.p_store
let pop_meta = pk ~s1:(Reg.pipe_gpr Reg.rsp) ~lat:1 Pipeline.p_load

(* How one retired instruction is re-issued: [m1] first (with the first
   access's latency when [load]), then [m2] unless it is -1; [naccs]
   access-stream entries belong to it. *)
type step = { m1 : int; load : bool; m2 : int; naccs : int }

let none = { m1 = -1; load = false; m2 = -1; naccs = 0 }

let uop_step (u : Ublock.uop) =
  let st m = { none with m1 = m } in
  let ld ?(naccs = 1) m = { m1 = m; load = true; m2 = -1; naccs } in
  let store ?(naccs = 1) m = { m1 = m; load = false; m2 = -1; naccs } in
  match u with
  | Ublock.Uload_bd { meta; _ } | Ublock.Uload_gen { meta; _ } | Ublock.Umovdqa_load { meta; _ }
  | Ublock.Uload_bd_c { meta; _ } | Ublock.Uload_gen_c { meta; _ } ->
    ld meta
  | Ublock.Ubndmov_load { meta; _ } -> ld ~naccs:2 meta
  | Ublock.Upop _ -> ld pop_meta
  | Ublock.Ustore_bd { meta; _ } | Ublock.Ustore_gen { meta; _ } | Ublock.Ustorei_bd { meta; _ }
  | Ublock.Ustorei_gen { meta; _ } | Ublock.Umovdqa_store { meta; _ }
  | Ublock.Ustore_bd_c { meta; _ } | Ublock.Ustore_gen_c { meta; _ }
  | Ublock.Ustorei_bd_c { meta; _ } | Ublock.Ustorei_gen_c { meta; _ } ->
    store meta
  | Ublock.Ubndmov_store { meta; _ } -> store ~naccs:2 meta
  | Ublock.Upush _ -> store push_meta
  | Ublock.Uaes { d; s; _ } ->
    st (pk ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~d1:(Reg.pipe_xmm d) ~lat:4 Pipeline.p_aes)
  | Ublock.Uaesimc { d; s } ->
    st (pk ~s1:(Reg.pipe_xmm s) ~d1:(Reg.pipe_xmm d) ~lat:8 Pipeline.p_aes)
  | Ublock.Unop { meta } | Ublock.Umov_rr { meta; _ } | Ublock.Umov_ri { meta; _ }
  | Ublock.Ulea { meta; _ } | Ublock.Ulea32 { meta; _ } | Ublock.Ualu_rr { meta; _ }
  | Ublock.Ualu_ri { meta; _ } | Ublock.Ucmp_rr { meta; _ } | Ublock.Ucmp_ri { meta; _ }
  | Ublock.Utest_rr { meta; _ } | Ublock.Ubnd_set { meta; _ } | Ublock.Ubndc { meta; _ }
  | Ublock.Urdpkru { meta } | Ublock.Umovq_xr { meta; _ } | Ublock.Umovq_rx { meta; _ }
  | Ublock.Uxmm_xor { meta; _ } | Ublock.Uaeskeygen { meta; _ } | Ublock.Uvext_high { meta; _ }
  | Ublock.Uvins_high { meta; _ } | Ublock.Ualu_rr_nf { meta; _ } | Ublock.Ualu_ri_nf { meta; _ } ->
    st meta
  (* Fused shapes exist only inside optimized traces, never in blocks. *)
  | Ublock.Ufuse_mask_load { m2; _ } -> ld m2
  | Ublock.Ufuse_mask_store { m2; _ } | Ublock.Ufuse_mask_storei { m2; _ } -> store m2
  | Ublock.Ufuse_lea_bndc { m1; m2; _ } -> { none with m1; m2 }

let term_step (t : Ublock.terminator) =
  match t with
  | Ublock.Term_jmp _ -> { none with m1 = branch () }
  | Ublock.Term_jcc _ -> { none with m1 = branch ~s1:Reg.pipe_flags () }
  | Ublock.Term_jmp_r { r } -> { none with m1 = branch ~s1:(Reg.pipe_gpr r) () }
  | Ublock.Term_call _ -> { m1 = push_meta; load = false; m2 = branch (); naccs = 1 }
  | Ublock.Term_call_r { r } ->
    { m1 = push_meta; load = false; m2 = branch ~s1:(Reg.pipe_gpr r) (); naccs = 1 }
  | Ublock.Term_ret -> { m1 = pop_meta; load = true; m2 = branch (); naccs = 1 }
  | Ublock.Term_exec insn ->
    let lat, naccs =
      match insn with
      | Insn.Wrpkru -> (int_of_float Cpu.wrpkru_cost, 1)
      | Insn.Vmfunc -> (int_of_float Cpu.vmfunc_cost, 1)
      | Insn.Vmcall -> (int_of_float Cpu.vmcall_cost, 0)
      | Insn.Syscall -> (int_of_float Cpu.syscall_cost, 0)
      | _ -> (1, 0)
    in
    { none with m1 = pk ~lat Pipeline.p_special; naccs }
  | Ublock.Term_halt | Ublock.Term_fall_off -> none

let pipeline program (s : streams) lats =
  let tc = Ublock.create program in
  (* Resolve every executed rip's step before the timed loop, so the
     timing covers the pipeline alone and not block compilation. *)
  let steps = Array.make (Program.length program) none in
  let resolved = Array.make (Program.length program) false in
  for i = 0 to s.rips.n - 1 do
    let rip = s.rips.a.(i) in
    if not resolved.(rip) then begin
      resolved.(rip) <- true;
      let b = Ublock.get tc rip in
      steps.(rip) <-
        (if Array.length b.Ublock.uops > 0 then uop_step b.Ublock.uops.(0)
         else term_step b.Ublock.term)
    end
  done;
  let pipe = Pipeline.create () in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  let issues = ref 0 in
  for i = 0 to s.rips.n - 1 do
    let st = steps.(s.rips.a.(i)) in
    if st.m1 >= 0 then begin
      if st.load then Pipeline.issue_packed pipe ~meta:st.m1 ~lat:lats.(!acc)
      else Pipeline.issue_packed_static pipe ~meta:st.m1;
      incr issues
    end;
    if st.m2 >= 0 then begin
      Pipeline.issue_packed_static pipe ~meta:st.m2;
      incr issues
    end;
    acc := !acc + st.naccs
  done;
  (Unix.gettimeofday () -. t0, !issues, !acc = s.accs.n)
