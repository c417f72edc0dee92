open X86sim

let spray_and_find prim cpu ~lo ~hi ~spray_pages ~marker =
  let page = Physmem.page_size in
  let slots = (hi - lo) / page in
  if spray_pages <= 0 || spray_pages > slots then
    invalid_arg "Thread_spray: spray_pages out of range";
  let stride = slots / spray_pages * page in
  (* Spray: allocate our "thread stacks" evenly across the range (the
     attacker controls thread creation, hence placement density). *)
  for k = 0 to spray_pages - 1 do
    let va = lo + (k * stride) in
    if not (Mmu.is_mapped cpu.Cpu.mmu ~va) then begin
      Mmu.map_range cpu.Cpu.mmu ~va ~len:page ~writable:true;
      Mmu.poke64 cpu.Cpu.mmu ~va marker
    end
  done;
  (* Hunt: every mapped page is now either ours (marker) or the prey.
     Reads of our own pages never crash; the region reveals itself by
     contents (or by faulting under a deterministic technique). *)
  let rec hunt va =
    if va >= hi then None
    else if Primitives.is_mapped_oracle prim va then
      match Primitives.try_read prim va with
      | Some v when v <> marker -> Some va
      | Some _ -> hunt (va + page)
      | None -> Some va (* mapped but unreadable: deterministic isolation *)
    else hunt (va + page)
  in
  hunt lo

(* ------------------------------------------------------------------ *)
(* Cross-core gate-window race                                         *)
(* ------------------------------------------------------------------ *)

type gate = Wrpkru_gate | Mprotect_gate

type race_result = {
  rr_probes : int;
  rr_hits : int;
  rr_leaks : int;
  rr_faults : int;
}

(* The concurrency attack the single-core simulator could not express:
   a victim on core 0 repeatedly opens its gate, touches the safe region,
   and closes the gate again, while a sibling thread on core 1 hammers
   the region with loads the whole time. Under MPK the gate is the
   victim's *own* PKRU — per-core register state — so the attacker's
   probes fault regardless of the victim's window. Under an mprotect gate
   the permission lives in the *shared* page table: every probe that
   lands inside the victim's open window reads the secret. This is the
   multi-threaded argument for register-state gates (ERIM's per-thread
   PKRU observation) made measurable. *)
let race_gate_window ?(iters = 8) ?(spin = 80) ?(probes = 400) ~gate ~secret () =
  let page = Physmem.page_size in
  let region = 0x5000_0000 in
  let buf = 0x5100_0000 in
  let sentinel = 0x5E17151 in
  if secret = sentinel || secret = 0 then
    invalid_arg "Thread_spray.race_gate_window: secret collides with sentinel/zero";
  let m = Machine.create ~vcpus:2 () in
  let victim = Machine.cpu m 0 and attacker = Machine.cpu m 1 in
  Mmu.map_range victim.Cpu.mmu ~va:region ~len:page ~writable:true;
  let buf_len = (((probes * 8) + page - 1) / page) * page in
  Mmu.map_range victim.Cpu.mmu ~va:buf ~len:buf_len ~writable:true;
  let key = 1 in
  let open_gate, close_gate =
    match gate with
    | Wrpkru_gate ->
      Mpk.Pkey.assign victim ~va:region ~len:page ~key;
      (* The attacker thread lives in the closed domain; the victim's
         wrpkru toggles only core 0's PKRU. *)
      Mpk.Pkey.close_default victim ~key ~protection:Mpk.Pkey.No_access;
      Mpk.Pkey.close_default attacker ~key ~protection:Mpk.Pkey.No_access;
      (Mpk.Pkey.open_seq, Mpk.Pkey.close_seq ~key ~protection:Mpk.Pkey.No_access)
    | Mprotect_gate ->
      Mmu.protect_range victim.Cpu.mmu ~va:region ~len:page ~readable:false ~writable:false;
      let seq prot =
        [
          Insn.Mov_ri (Reg.rax, Cpu.sys_mprotect);
          Insn.Mov_ri (Reg.rdi, region);
          Insn.Mov_ri (Reg.rsi, page);
          Insn.Mov_ri (Reg.rdx, prot);
          Insn.Syscall;
        ]
      in
      (seq 3, seq 0)
  in
  let i x = Program.I x in
  let victim_program =
    Program.assemble
      ([ Program.Label "main"; i (Insn.Mov_ri (Reg.rbx, iters)); Program.Label "vloop" ]
      @ List.map i open_gate
      @ [
          i (Insn.Store_i (Insn.mem_abs region, secret));
          i (Insn.Mov_ri (Reg.rsi, spin));
          Program.Label "vspin";
          i (Insn.Alu_ri (Insn.Sub, Reg.rsi, 1));
          i (Insn.Jcc (Insn.Gt, Insn.target "vspin"));
        ]
      @ List.map i close_gate
      @ [
          i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
          i (Insn.Jcc (Insn.Gt, Insn.target "vloop"));
          i Insn.Halt;
        ])
  in
  let attacker_program =
    Program.assemble
      [
        Program.Label "main";
        i (Insn.Mov_ri (Reg.rbx, probes));
        i (Insn.Mov_ri (Reg.rdi, buf));
        Program.Label "aloop";
        i (Insn.Mov_ri (Reg.rcx, sentinel));
        i (Insn.Load (Reg.rcx, Insn.mem_abs region));
        i (Insn.Store (Insn.mem ~base:Reg.rdi 0, Reg.rcx));
        i (Insn.Alu_ri (Insn.Add, Reg.rdi, 8));
        i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
        i (Insn.Jcc (Insn.Gt, Insn.target "aloop"));
        i Insn.Halt;
      ]
  in
  Cpu.load_program victim victim_program;
  Cpu.load_program attacker attacker_program;
  (* The attacker survives its faulting probes (crash-resistant thread). *)
  attacker.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_skip);
  (* 50-instruction quanta, shorter than the default 80-instruction spin,
     land attacker slices inside the victim's open windows. *)
  (match Machine.run ~quantum:50 m with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> failwith "Thread_spray.race_gate_window: machine did not terminate");
  let hits = ref 0 and leaks = ref 0 and faults = ref 0 in
  for k = 0 to probes - 1 do
    let v = Mmu.peek64 attacker.Cpu.mmu ~va:(buf + (8 * k)) in
    if v = sentinel then incr faults
    else begin
      incr hits;
      if v = secret then incr leaks
    end
  done;
  { rr_probes = probes; rr_hits = !hits; rr_leaks = !leaks; rr_faults = !faults }
