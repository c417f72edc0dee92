(* The no-hook fast loop and the hooked per-step loop are two loops over
   the same instruction semantics ([Cpu.run_fast] chains predecoded
   blocks; [Cpu.step] runs the same uops one instruction at a time so
   hooks can observe each). Attaching an observe-only hook must not change
   a single modeled number: these tests check hook transparency. Random
   programs pin that down differentially: identical cycle count, counters,
   final registers and memory, with and without hooks, uninstrumented and
   under every isolation technique. A per-constructor sweep, fault
   precision inside a block and translation-cache invalidation complete
   the fast path's checks.

   Also covers the direct-mapped store buffer's capacity edge: two store
   lines that collide in a slot must evict (not merge), and only the
   resident line supplies store-to-load forwarding. *)

open Memsentry

type outcome = {
  cycles : float;
  counters : X86sim.Cpu.counters;
  gprs : int array;
  mem_g : int;
}

(* Run a prepared machine to completion and snapshot everything the two
   paths must agree on. [hooks] attaches observe-only step+event hooks,
   which forces every instruction through the instrumented [step] loop. *)
let snapshot ?cfg ~hooks recipe =
  let m = Test_differential.build_program recipe in
  let lowered = Ir.Lower.lower m in
  let p =
    match cfg with
    | None -> Framework.prepare_baseline lowered
    | Some c -> Framework.prepare c lowered
  in
  let cpu = p.Framework.cpu in
  let steps = ref 0 and events = ref 0 in
  if hooks then begin
    ignore (X86sim.Cpu.add_step_hook cpu (fun _ _ -> incr steps));
    ignore (X86sim.Cpu.add_event_hook cpu (fun _ -> incr events))
  end;
  (match Framework.run p with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "fastpath run out of fuel");
  if hooks && !steps = 0 then Alcotest.fail "step hook never fired";
  {
    cycles = X86sim.Cpu.cycles cpu;
    counters = cpu.X86sim.Cpu.counters;
    gprs = Array.init X86sim.Reg.gpr_count (X86sim.Cpu.get_gpr cpu);
    mem_g =
      X86sim.Mmu.peek64 cpu.X86sim.Cpu.mmu ~va:(Ir.Lower.global_va lowered "g");
  }

let same_outcome a b =
  a.cycles = b.cycles && a.counters = b.counters && a.gprs = b.gprs && a.mem_g = b.mem_g

let prop_fast_equals_hooked =
  QCheck.Test.make ~name:"no-hook fast loop = hooked loop (baseline)" ~count:60
    Test_differential.arb_recipe (fun r ->
      same_outcome (snapshot ~hooks:false r) (snapshot ~hooks:true r))

(* Under every isolation technique, so the comparison covers the
   techniques' full uop vocabulary: SFI masks, MPX checks, pkey switches,
   EPT switches, AES-NI rounds, mprotect syscalls. *)
let prop_fast_equals_hooked_techniques =
  QCheck.Test.make ~name:"every technique: no-hook fast loop = hooked loop" ~count:40
    Test_differential.arb_recipe (fun r ->
      List.for_all
        (fun cfg -> same_outcome (snapshot ~cfg ~hooks:false r) (snapshot ~cfg ~hooks:true r))
        Test_differential.techniques)

(* --- store-buffer capacity edge ---------------------------------------- *)

(* Two 64-byte lines exactly [sb_slots] lines apart map to the same
   direct-mapped slot. *)
let va_a = 0x100000
let va_b = va_a + (X86sim.Cpu.sb_slots * 64)

let run_asm text =
  let cpu = X86sim.Cpu.create () in
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_a ~len:4096 ~writable:true;
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_b ~len:4096 ~writable:true;
  X86sim.Cpu.load_program cpu (X86sim.Asm.parse_program text);
  (match X86sim.Cpu.run cpu with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "asm program out of fuel");
  cpu

let store_buffer_eviction () =
  let cpu =
    run_asm
      (Printf.sprintf
         "main:\n  mov rbx, %d\n  mov rcx, %d\n  mov [rbx], rax\n  mov [rcx], rax\n  hlt\n"
         va_a va_b)
  in
  let slot = va_a lsr 6 land (X86sim.Cpu.sb_slots - 1) in
  Alcotest.(check int) "colliding store evicted the earlier line" (va_b lsr 6)
    cpu.X86sim.Cpu.sb_line.(slot);
  Alcotest.(check bool) "evicting store left a ready time" true
    (cpu.X86sim.Cpu.sb_ready.(slot) > 0)

let store_buffer_forwarding_only_resident () =
  (* Store A, then a colliding store B, then load one of them. Only the
     resident line (B) can forward, so loading B must not finish earlier
     than loading A, which reads through the cache with no forwarding
     dependency. *)
  let prog target =
    Printf.sprintf
      "main:\n\
      \  mov rbx, %d\n\
      \  mov rcx, %d\n\
      \  mov [rbx], rax\n\
      \  mov [rcx], rax\n\
      \  mov rdx, [%s]\n\
      \  hlt\n"
      va_a va_b target
  in
  let evicted = X86sim.Cpu.cycles (run_asm (prog "rbx")) in
  let resident = X86sim.Cpu.cycles (run_asm (prog "rcx")) in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding stall only from resident line (%.2f <= %.2f)" evicted resident)
    true (evicted <= resident)

let store_buffer_bounded () =
  (* Streaming stores over more distinct lines than the buffer has slots
     must stay within the fixed arrays (no growth, no error) and leave at
     most [sb_slots] lines tracked. *)
  let lines = X86sim.Cpu.sb_slots + 8 in
  let cpu = X86sim.Cpu.create () in
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_a ~len:(lines * 64) ~writable:true;
  X86sim.Cpu.load_program cpu
    (X86sim.Asm.parse_program
       (Printf.sprintf
          "main:\n\
          \  mov rbx, %d\n\
          \  mov rcx, %d\n\
          loop:\n\
          \  mov [rbx], rax\n\
          \  add rbx, 64\n\
          \  sub rcx, 1\n\
          \  cmp rcx, 0\n\
          \  jne loop\n\
          \  hlt\n"
          va_a lines));
  (match X86sim.Cpu.run cpu with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "streaming stores out of fuel");
  Alcotest.(check int) "store-buffer arrays stay at capacity" X86sim.Cpu.sb_slots
    (Array.length cpu.X86sim.Cpu.sb_line);
  (* The first 8 lines were overwritten by the wrap-around tail. *)
  let slot0 = va_a lsr 6 land (X86sim.Cpu.sb_slots - 1) in
  Alcotest.(check int) "wrapped slot holds the latest colliding line"
    ((va_a lsr 6) + X86sim.Cpu.sb_slots)
    cpu.X86sim.Cpu.sb_line.(slot0)

(* --- exhaustive per-constructor differential sweep --------------------- *)

(* Random programs above give breadth; this sweep gives coverage: every
   [Insn.t] constructor (and the interesting variants within one — each
   ALU op, every condition taken and not taken, the addressing shapes,
   and the architectural fault cases) runs once through the no-hook fast
   path and once with hooks attached, and the complete architectural
   state must match: status, rip, flags, cycle count and its CPI stack,
   all counters, gprs, the full vector file, bound registers, pkru, data
   memory and the touched stack. Both loops execute the same uops, so
   what this pins is that the loops around them — fetch, hooks, memory
   events, fault delivery, fuel — leave the modeled machine alone. *)

open X86sim

let data_va = 0x200000

type full_snap = {
  f_status : string;
  f_rip : int;
  f_cmp : int;
  f_cycles : float;
  f_cpi : float array;
  f_counters : Cpu.counters;
  f_gprs : int array;
  f_vec : Bytes.t;
  f_bnd_lo : int array;
  f_bnd_hi : int array;
  f_pkru : int;
  f_data : Bytes.t;
  f_stack : Bytes.t;
}

(* [run] performs the actual execution so the same setup/snapshot logic
   serves both the direct [Cpu.run] path and a 1-vCPU [Machine.run]. *)
let run_case_on ~hooks cpu run items =
  Mmu.map_range cpu.Cpu.mmu ~va:data_va ~len:8192 ~writable:true;
  for k = 0 to 31 do
    Mmu.poke64 cpu.Cpu.mmu ~va:(data_va + (8 * k)) ((k + 1) * 0x0101010101)
  done;
  (* Deterministic nonzero register file (rsp keeps its stack pointer). *)
  for r = 0 to Reg.gpr_count - 1 do
    if r <> Reg.rsp then Cpu.set_gpr cpu r ((r * 3) + 7)
  done;
  for x = 0 to Reg.xmm_count - 1 do
    Cpu.set_xmm cpu x (Bytes.init 16 (fun j -> Char.chr (((x * 16) + j) land 0xff)));
    Cpu.set_ymm_high cpu x (Bytes.init 16 (fun j -> Char.chr ((0xa0 + x + j) land 0xff)))
  done;
  (* Fault cases terminate the run instead of unwinding, so a faulting
     constructor snapshots exactly like a halting one. *)
  cpu.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_halt);
  let rsp0 = Cpu.get_gpr cpu Reg.rsp in
  if hooks then begin
    ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
    ignore (Cpu.add_event_hook cpu (fun _ -> ()))
  end;
  Cpu.load_program cpu (Program.assemble items);
  let status = match run () with Cpu.Halted -> "halted" | Cpu.Out_of_fuel -> "fuel" in
  {
    f_status = status;
    f_rip = cpu.Cpu.rip;
    f_cmp = cpu.Cpu.cmp;
    f_cycles = Cpu.cycles cpu;
    f_cpi = Pipeline.cpi_totals cpu.Cpu.pipe;
    f_counters = cpu.Cpu.counters;
    f_gprs = Array.init Reg.gpr_count (Cpu.get_gpr cpu);
    f_vec = Bytes.copy cpu.Cpu.xmm;
    f_bnd_lo = Array.copy cpu.Cpu.bnd_lower;
    f_bnd_hi = Array.copy cpu.Cpu.bnd_upper;
    f_pkru = Cpu.pkru cpu;
    f_data = Mmu.peek_bytes cpu.Cpu.mmu ~va:data_va ~len:256;
    f_stack = Mmu.peek_bytes cpu.Cpu.mmu ~va:(rsp0 - 64) ~len:64;
  }

let run_case ~hooks items =
  let cpu = Cpu.create () in
  run_case_on ~hooks cpu (fun () -> Cpu.run cpu) items

let diff_fields a b =
  List.filter_map
    (fun (n, eq) -> if eq then None else Some n)
    [
      ("status", a.f_status = b.f_status);
      ("rip", a.f_rip = b.f_rip);
      ("cmp", a.f_cmp = b.f_cmp);
      ("cycles", a.f_cycles = b.f_cycles);
      ("cpi", a.f_cpi = b.f_cpi);
      ("counters", a.f_counters = b.f_counters);
      ("gprs", a.f_gprs = b.f_gprs);
      ("vec", a.f_vec = b.f_vec);
      ("bnd_lower", a.f_bnd_lo = b.f_bnd_lo);
      ("bnd_upper", a.f_bnd_hi = b.f_bnd_hi);
      ("pkru", a.f_pkru = b.f_pkru);
      ("data", a.f_data = b.f_data);
      ("stack", a.f_stack = b.f_stack);
    ]

(* Compile-time exhaustiveness guard: adding an [Insn.t] constructor
   without extending [exhaustive_cases] below makes this match (no
   wildcard) fail to compile. *)
let _covered (x : Insn.t) =
  match x with
  | Insn.Nop | Insn.Halt | Insn.Mov_rr _ | Insn.Mov_ri _ | Insn.Mov_label _ | Insn.Load _
  | Insn.Store _ | Insn.Store_i _ | Insn.Lea _ | Insn.Lea32 _ | Insn.Alu_rr _ | Insn.Alu_ri _
  | Insn.Cmp_rr _ | Insn.Cmp_ri _ | Insn.Test_rr _ | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_r _
  | Insn.Call _ | Insn.Call_r _ | Insn.Ret | Insn.Push _ | Insn.Pop _ | Insn.Syscall
  | Insn.Mfence | Insn.Cpuid | Insn.Bnd_set _ | Insn.Bndcu _ | Insn.Bndcl _
  | Insn.Bndmov_store _ | Insn.Bndmov_load _ | Insn.Wrpkru | Insn.Rdpkru | Insn.Vmfunc
  | Insn.Vmcall | Insn.Movdqa_load _ | Insn.Movdqa_store _ | Insn.Movq_xr _ | Insn.Movq_rx _
  | Insn.Pxor _ | Insn.Aesenc _ | Insn.Aesenclast _ | Insn.Aesdec _ | Insn.Aesdeclast _
  | Insn.Aeskeygenassist _ | Insn.Aesimc _ | Insn.Vext_high _ | Insn.Vins_high _
  | Insn.Fp_arith _ ->
    ()

let exhaustive_cases : (string * (unit -> Program.item list)) list =
  let i x = Program.I x and lbl s = Program.Label s in
  let tgt = Insn.target in
  let m = Insn.mem in
  let abs = Insn.mem_abs in
  let halt = [ i Insn.Halt ] in
  let alu_name = function
    | Insn.Add -> "add"
    | Insn.Sub -> "sub"
    | Insn.And -> "and"
    | Insn.Or -> "or"
    | Insn.Xor -> "xor"
    | Insn.Shl -> "shl"
    | Insn.Shr -> "shr"
    | Insn.Imul -> "imul"
  in
  let cond_name = function
    | Insn.Eq -> "eq"
    | Insn.Ne -> "ne"
    | Insn.Lt -> "lt"
    | Insn.Le -> "le"
    | Insn.Gt -> "gt"
    | Insn.Ge -> "ge"
  in
  let all_alu = [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Shl; Insn.Shr; Insn.Imul ] in
  let all_cond = [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ] in
  [
    ("nop", fun () -> i Insn.Nop :: halt);
    ("halt", fun () -> halt);
    ("mov_rr", fun () -> i (Insn.Mov_rr (Reg.rbx, Reg.rcx)) :: halt);
    ("mov_ri", fun () -> i (Insn.Mov_ri (Reg.rbx, 0x1234_5678_9ab)) :: halt);
    ("mov_label", fun () -> [ i (Insn.Mov_label (Reg.rbx, tgt "end")); lbl "end" ] @ halt);
    ("load_abs", fun () -> i (Insn.Load (Reg.rbx, abs data_va)) :: halt);
    ( "load_base_index_scale_disp",
      fun () ->
        [
          i (Insn.Mov_ri (Reg.rbx, data_va));
          i (Insn.Mov_ri (Reg.rcx, 2));
          i (Insn.Load (Reg.rdx, m ~base:Reg.rbx ~index:Reg.rcx ~scale:8 8));
        ]
        @ halt );
    ("load_unmapped_faults", fun () -> i (Insn.Load (Reg.rbx, abs 0x900000)) :: halt);
    ( "store",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Store (m ~base:Reg.rbx 16, Reg.rcx)) ]
        @ halt );
    ("store_i", fun () -> i (Insn.Store_i (abs (data_va + 24), 0xfeed)) :: halt);
    ("store_unmapped_faults", fun () -> i (Insn.Store (abs 0x900000, Reg.rcx)) :: halt);
    ("lea", fun () -> i (Insn.Lea (Reg.rbx, m ~base:Reg.rcx ~index:Reg.rdx ~scale:4 100)) :: halt);
    ( "lea32_truncates",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, 0x1_0000_0040)); i (Insn.Lea32 (Reg.rcx, m ~base:Reg.rbx 8)) ]
        @ halt );
    ("cmp_rr", fun () -> i (Insn.Cmp_rr (Reg.rbx, Reg.rcx)) :: halt);
    ("cmp_ri", fun () -> i (Insn.Cmp_ri (Reg.rbx, 13)) :: halt);
    ("test_rr", fun () -> i (Insn.Test_rr (Reg.rbx, Reg.rcx)) :: halt);
    ( "jmp",
      fun () -> [ i (Insn.Jmp (tgt "over")); i (Insn.Mov_ri (Reg.rdx, 111)); lbl "over" ] @ halt );
    ( "jmp_r",
      fun () ->
        [
          i (Insn.Mov_label (Reg.rbx, tgt "over"));
          i (Insn.Jmp_r Reg.rbx);
          i (Insn.Mov_ri (Reg.rdx, 111));
          lbl "over";
        ]
        @ halt );
    ( "call_ret",
      fun () ->
        [
          i (Insn.Call (tgt "f"));
          i (Insn.Jmp (tgt "end"));
          lbl "f";
          i (Insn.Mov_ri (Reg.rdx, 7));
          i Insn.Ret;
          lbl "end";
        ]
        @ halt );
    ( "call_r",
      fun () ->
        [
          i (Insn.Mov_label (Reg.rbx, tgt "f"));
          i (Insn.Call_r Reg.rbx);
          i (Insn.Jmp (tgt "end"));
          lbl "f";
          i (Insn.Mov_ri (Reg.rdx, 7));
          i Insn.Ret;
          lbl "end";
        ]
        @ halt );
    ( "push_pop",
      fun () -> [ i (Insn.Mov_ri (Reg.rbx, 0xdead)); i (Insn.Push Reg.rbx); i (Insn.Pop Reg.rcx) ] @ halt
    );
    ("syscall_nop", fun () -> [ i (Insn.Mov_ri (Reg.rax, Cpu.sys_nop)); i Insn.Syscall ] @ halt);
    ("mfence", fun () -> i Insn.Mfence :: halt);
    ("cpuid", fun () -> i Insn.Cpuid :: halt);
    ("bnd_set", fun () -> i (Insn.Bnd_set (0, 10, 20)) :: halt);
    ( "bndcu_pass",
      fun () ->
        [ i (Insn.Bnd_set (0, 0, 1000)); i (Insn.Mov_ri (Reg.rbx, 500)); i (Insn.Bndcu (0, Reg.rbx)) ]
        @ halt );
    ( "bndcu_violation",
      fun () ->
        [ i (Insn.Bnd_set (0, 0, 1000)); i (Insn.Mov_ri (Reg.rbx, 2000)); i (Insn.Bndcu (0, Reg.rbx)) ]
        @ halt );
    ( "bndcl_pass",
      fun () ->
        [ i (Insn.Bnd_set (0, 100, 1000)); i (Insn.Mov_ri (Reg.rbx, 500)); i (Insn.Bndcl (0, Reg.rbx)) ]
        @ halt );
    ( "bndcl_violation",
      fun () ->
        [ i (Insn.Bnd_set (0, 100, 1000)); i (Insn.Mov_ri (Reg.rbx, 50)); i (Insn.Bndcl (0, Reg.rbx)) ]
        @ halt );
    ( "bndmov_store_load",
      fun () ->
        [
          i (Insn.Bnd_set (0, 7, 99));
          i (Insn.Mov_ri (Reg.rbx, data_va));
          i (Insn.Bndmov_store (m ~base:Reg.rbx 32, 0));
          i (Insn.Bndmov_load (1, m ~base:Reg.rbx 32));
        ]
        @ halt );
    (* The two 8-byte halves straddle a cache line: each access's TLB and
       cache outcome gets its own CPI-class attribution. *)
    ( "bndmov_load_line_crossing",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Bndmov_load (2, m ~base:Reg.rbx 56)) ]
        @ halt );
    ( "wrpkru",
      fun () ->
        [
          i (Insn.Mov_ri (Reg.rax, 0b1100));
          i (Insn.Mov_ri (Reg.rcx, 0));
          i (Insn.Mov_ri (Reg.rdx, 0));
          i Insn.Wrpkru;
        ]
        @ halt );
    ("wrpkru_gp_faults", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 1)); i Insn.Wrpkru ] @ halt);
    ("rdpkru", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 0)); i Insn.Rdpkru ] @ halt);
    ("rdpkru_gp_faults", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 2)); i Insn.Rdpkru ] @ halt);
    ("vmfunc_outside_guest_faults", fun () -> i Insn.Vmfunc :: halt);
    ("vmcall_outside_guest_faults", fun () -> i Insn.Vmcall :: halt);
    ( "movdqa_load",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_load (2, m ~base:Reg.rbx 0)) ] @ halt );
    ( "movdqa_store",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_store (m ~base:Reg.rbx 48, 1)) ] @ halt
    );
    ( "movdqa_unaligned_faults",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_load (2, m ~base:Reg.rbx 8)) ] @ halt );
    ("movq_xr", fun () -> [ i (Insn.Mov_ri (Reg.rbx, 0xabcdef)); i (Insn.Movq_xr (3, Reg.rbx)) ] @ halt);
    ("movq_rx", fun () -> i (Insn.Movq_rx (Reg.rdx, 1)) :: halt);
    ("pxor", fun () -> i (Insn.Pxor (1, 2)) :: halt);
    ("aesenc", fun () -> i (Insn.Aesenc (1, 2)) :: halt);
    ("aesenclast", fun () -> i (Insn.Aesenclast (1, 2)) :: halt);
    ("aesdec", fun () -> i (Insn.Aesdec (1, 2)) :: halt);
    ("aesdeclast", fun () -> i (Insn.Aesdeclast (1, 2)) :: halt);
    ("aeskeygenassist", fun () -> i (Insn.Aeskeygenassist (3, 1, 0x1b)) :: halt);
    ("aesimc", fun () -> i (Insn.Aesimc (3, 1)) :: halt);
    ("vext_high", fun () -> i (Insn.Vext_high (2, 1)) :: halt);
    ("vins_high", fun () -> i (Insn.Vins_high (2, 1)) :: halt);
    (* Aliased operands: the in-place semantics read both operands before
       writing the destination, exactly as with distinct registers. *)
    ("aesenc_aliased", fun () -> i (Insn.Aesenc (1, 1)) :: halt);
    ("aesdec_aliased", fun () -> i (Insn.Aesdec (1, 1)) :: halt);
    ("aesimc_aliased", fun () -> i (Insn.Aesimc (3, 3)) :: halt);
    ("aeskeygenassist_aliased", fun () -> i (Insn.Aeskeygenassist (1, 1, 0x1b)) :: halt);
    ("vext_high_aliased", fun () -> i (Insn.Vext_high (1, 1)) :: halt);
    ("vins_high_aliased", fun () -> i (Insn.Vins_high (1, 1)) :: halt);
    ("fp_arith", fun () -> i (Insn.Fp_arith (1, 2)) :: halt);
  ]
  @ List.map
      (fun op ->
        ( "alu_rr_" ^ alu_name op,
          fun () ->
            [
              i (Insn.Mov_ri (Reg.rbx, 1234));
              i (Insn.Mov_ri (Reg.rcx, 3));
              i (Insn.Alu_rr (op, Reg.rbx, Reg.rcx));
            ]
            @ halt ))
      all_alu
  @ List.map
      (fun op ->
        ( "alu_ri_" ^ alu_name op,
          fun () -> [ i (Insn.Mov_ri (Reg.rbx, 1234)); i (Insn.Alu_ri (op, Reg.rbx, 5)) ] @ halt ))
      all_alu
  @ List.concat_map
      (fun c ->
        (* Compare against 5 from below, at, and above: each condition is
           exercised both taken and not taken. *)
        List.map
          (fun (tag, lhs) ->
            ( Printf.sprintf "jcc_%s_rbx%s" (cond_name c) tag,
              fun () ->
                [
                  i (Insn.Mov_ri (Reg.rbx, lhs));
                  i (Insn.Cmp_ri (Reg.rbx, 5));
                  i (Insn.Jcc (c, tgt "over"));
                  i (Insn.Mov_ri (Reg.rdx, 111));
                  lbl "over";
                ]
                @ halt ))
          [ ("3", 3); ("5", 5); ("7", 7) ])
      all_cond

let exhaustive_differential () =
  List.iter
    (fun (name, items) ->
      let fast = run_case ~hooks:false (items ()) in
      let hooked = run_case ~hooks:true (items ()) in
      Alcotest.(check (list string)) name [] (diff_fields fast hooked))
    exhaustive_cases

(* The same sweep, seen from the tiers: the hooked loop interprets one
   instruction at a time and must never enter a translated block, while
   the no-hook run must actually execute in the block tier (its cache
   profile records at least one block run). Without the second check a
   fast path that silently fell back to stepping would pass the sweep. *)
let interpreter_equals_block_tier () =
  List.iter
    (fun (name, items) ->
      let run ~hooks =
        let cpu = Cpu.create () in
        let snap = run_case_on ~hooks cpu (fun () -> Cpu.run cpu) (items ()) in
        (snap, List.length (Ublock.stats cpu.Cpu.tcache))
      in
      let interp, interp_blocks = run ~hooks:true in
      let block, block_blocks = run ~hooks:false in
      Alcotest.(check (list string)) (name ^ ": block tier = interpreter") []
        (diff_fields block interp);
      Alcotest.(check int) (name ^ ": interpreter ran no block") 0 interp_blocks;
      Alcotest.(check bool) (name ^ ": block tier ran a block") true (block_blocks > 0))
    exhaustive_cases

(* Event hooks do not force the interpreter: with only an event hook
   attached, every constructor's run executes translated blocks, and its
   event stream (each event with its [rip], in order) equals the stream of
   the same run forced onto [step] by a no-op step hook. The machine state
   must match too. Over the whole sweep, gate, fault, TLB-miss and
   cache-miss events all occur, so each emitting path is compared. *)
let event_hooks_on_block_tier () =
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (name, items) ->
      let run ~step =
        let cpu = Cpu.create () in
        let events = ref [] in
        ignore (Cpu.add_event_hook cpu (fun ev -> events := ev :: !events));
        if step then ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
        let snap = run_case_on ~hooks:false cpu (fun () -> Cpu.run cpu) (items ()) in
        (snap, List.rev !events, List.length (Ublock.stats cpu.Cpu.tcache))
      in
      let block, block_events, block_blocks = run ~step:false in
      let interp, interp_events, interp_blocks = run ~step:true in
      Alcotest.(check (list string)) (name ^ ": event-hooked block tier = interpreter") []
        (diff_fields block interp);
      Alcotest.(check (list string)) (name ^ ": same events, rips and order")
        (List.map Event.to_string interp_events)
        (List.map Event.to_string block_events);
      Alcotest.(check bool) (name ^ ": event hook kept the block tier") true (block_blocks > 0);
      Alcotest.(check int) (name ^ ": step hook forced the interpreter") 0 interp_blocks;
      List.iter
        (fun ev ->
          let kind =
            match ev with
            | Event.Gate_enter _ | Event.Gate_exit _ -> "gate"
            | Event.Fault _ -> "fault"
            | Event.Tlb_miss _ -> "tlb"
            | Event.Cache_miss _ -> "cache"
            | Event.Vm_exit _ -> "vm-exit"
          in
          Hashtbl.replace kinds kind ())
        block_events)
    exhaustive_cases;
  List.iter
    (fun k -> Alcotest.(check bool) ("sweep emits " ^ k ^ " events") true (Hashtbl.mem kinds k))
    [ "gate"; "fault"; "tlb"; "cache" ]

(* The differential guard for the one build path: a 1-vCPU [Machine.run]
   is [Cpu.run] on its core — same cycles, counters, registers, vector
   file and memory — and, because a lone core takes its whole fuel in one
   slice, it translates the same blocks: equal [Ublock.compiles] and
   [Ublock.stats], on every constructor and on a real workload whose run
   spans many default quanta (hmmer, MPK call/ret).

   The multi-core scheduler chains [Cpu.run ~fuel:q] slices, which is only
   sound because fuel accounting is exact. So each case also runs on
   core 0 of a 2-vCPU machine whose core 1 halts at once (a fresh core's
   program is a lone [Halt]): quanta of 1, 7 and 1000 instructions must
   reproduce the state [~quantum:max_int] (one slice per core) leaves.
   Quantum 1 resumes between every pair of instructions. *)
let machine_single_core_differential () =
  let blocks (cpu : Cpu.t) = (Ublock.compiles cpu.Cpu.tcache, Ublock.stats cpu.Cpu.tcache) in
  let same_blocks what a b =
    let ca, sa = blocks a and cb, sb = blocks b in
    Alcotest.(check int) (what ^ ": block compiles") ca cb;
    Alcotest.(check bool) (what ^ ": block stats") true (sa = sb)
  in
  let on_two_cores ?fuel ~quantum items =
    let m = Machine.create ~vcpus:2 () in
    run_case_on ~hooks:false (Machine.cpu m 0) (fun () -> Machine.run ?fuel ~quantum m) items
  in
  List.iter
    (fun (name, items) ->
      let cpu = Cpu.create () in
      let direct = run_case_on ~hooks:false cpu (fun () -> Cpu.run cpu) (items ()) in
      let m = Machine.create () in
      let via_machine =
        run_case_on ~hooks:false (Machine.cpu m 0) (fun () -> Machine.run m) (items ())
      in
      Alcotest.(check (list string)) (name ^ " (machine)") [] (diff_fields direct via_machine);
      same_blocks name cpu (Machine.cpu m 0);
      let one_slice = on_two_cores ~quantum:max_int (items ()) in
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s (2 vCPUs, quantum %d)" name q)
            [] (diff_fields one_slice (on_two_cores ~quantum:q (items ()))))
        [ 1; 7; 1000 ])
    exhaustive_cases;
  (* Fuel is per core and exact across slices: a 302-instruction loop cut
     at 123 instructions stops at the same instruction whatever the
     quantum, including ones that do not divide the fuel. *)
  let countdown () =
    let i x = Program.I x in
    [
      i (Insn.Mov_ri (Reg.rbx, 100));
      Program.Label "loop";
      i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
      i (Insn.Cmp_ri (Reg.rbx, 0));
      i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
      i Insn.Halt;
    ]
  in
  let cut = on_two_cores ~fuel:123 ~quantum:max_int (countdown ()) in
  Alcotest.(check string) "fuel cut: out of fuel" "fuel" cut.f_status;
  Alcotest.(check int) "fuel cut: 123 retired" 123 cut.f_counters.Cpu.insns;
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (Printf.sprintf "fuel cut (2 vCPUs, quantum %d)" q)
        [] (diff_fields cut (on_two_cores ~fuel:123 ~quantum:q (countdown ()))))
    [ 1; 7; 1000 ];
  let prepared () =
    Framework.prepare
      (Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access))
      (Workloads.Synth.lowered ~iterations:20 (Workloads.Spec2006.find "hmmer"))
  in
  let direct = prepared () and via_machine = prepared () in
  ignore (Cpu.run direct.Framework.cpu);
  ignore (Machine.run via_machine.Framework.machine);
  let a = direct.Framework.cpu and b = via_machine.Framework.cpu in
  Alcotest.(check bool) "hmmer spans many quanta" true
    (a.Cpu.counters.Cpu.insns > 10 * Machine.default_quantum);
  Alcotest.(check (float 0.0)) "hmmer: cycles" (Cpu.cycles a) (Cpu.cycles b);
  same_blocks "hmmer" a b

(* --- fault precision inside a block ------------------------------------- *)

(* A load walking forward 8 bytes per iteration, second in its loop block:
   [run_case_on] maps 8 KiB at [data_va], so iteration 1025 page-faults
   at instruction 3. *)
let walking_load_items ~n =
  let i x = Program.I x in
  let m = Insn.mem in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rdx, data_va));
    Program.Label "loop";
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Load (Reg.rcx, m ~base:Reg.rdx 0));
    i (Insn.Alu_ri (Insn.Add, Reg.rdx, 8));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

(* A lea+bndcu pair whose checked address walks past the bound: iteration
   52 raises [Bound_violation] from the bndcu at instruction 4, after the
   check has issued. *)
let bound_walk_items ~n =
  let i x = Program.I x in
  let m = Insn.mem in
  [
    i (Insn.Bnd_set (0, 0, data_va + 400));
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rdx, data_va));
    Program.Label "loop";
    i (Insn.Lea (Reg.rcx, m ~base:Reg.rdx 0));
    i (Insn.Bndcu (0, Reg.rcx));
    i (Insn.Load (Reg.rax, m ~base:Reg.rdx 0));
    i (Insn.Alu_ri (Insn.Add, Reg.rdx, 8));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

(* A fault in the middle of a hot, self-chained block: [run_case_on]'s
   handler halts on the fault, so [rip] is left where delivery found it.
   It must name the faulting instruction, and the whole machine state must
   equal the hooked loop's. *)
let fault_precision_in_block () =
  List.iter
    (fun (name, items, faulting) ->
      let block = run_case ~hooks:false (items ()) in
      let hooked = run_case ~hooks:true (items ()) in
      Alcotest.(check (list string)) (name ^ ": block tier = hooked loop") []
        (diff_fields block hooked);
      Alcotest.(check int) (name ^ ": one fault delivered") 1 block.f_counters.Cpu.faults;
      Alcotest.(check int) (name ^ ": rip names the faulting instruction") faulting block.f_rip)
    [
      ("walking load page fault", (fun () -> walking_load_items ~n:1200), 3);
      ("lea+bndcu bound violation", (fun () -> bound_walk_items ~n:80), 4);
    ]

(* --- whole-run allocation guards -------------------------------------- *)

(* Minor words per additional event ([count] of the counters) between a
   200- and a 400-iteration fast-path run of [bench] under [cfg]. The
   difference cancels fixed per-run costs such as block compilation,
   which would swamp a plain per-run ratio. *)
let marginal_words ~bench cfg ~count =
  let measure iterations =
    let p =
      Workloads.Runner.prepare_instrumented ~iterations (Workloads.Spec2006.find bench) cfg
    in
    let cpu = p.Framework.cpu in
    let w0 = Gc.minor_words () in
    (match Framework.run p with
    | Cpu.Halted -> ()
    | Cpu.Out_of_fuel -> Alcotest.fail (bench ^ " out of fuel"));
    (Gc.minor_words () -. w0, count cpu.Cpu.counters)
  in
  let w1, n1 = measure 200 in
  let w2, n2 = measure 400 in
  Alcotest.(check bool) (bench ^ ": the longer run has more events") true (n2 > n1);
  (w2 -. w1) /. float_of_int (n2 - n1)

let check_marginal what words =
  if words >= 1.0 then Alcotest.failf "%s: %.3f minor words per additional event" what words

(* Crypt call-ret runs an AES round sequence at every crossing: the rounds
   work in place on the register file. *)
let crypt_rounds_allocation_free () =
  let cfg = Framework.config ~switch_policy:Instr.At_call_ret Technique.Crypt in
  List.iter
    (fun bench ->
      check_marginal (bench ^ " crypt call-ret, per aes op")
        (marginal_words ~bench cfg ~count:(fun c -> c.Cpu.aes_ops)))
    [ "povray"; "hmmer" ]

(* MPK call-ret crosses a wrpkru gate at every call and return; each ends
   a block chain. *)
let mpk_gates_allocation_free () =
  let cfg =
    Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access)
  in
  List.iter
    (fun bench ->
      check_marginal (bench ^ " MPK call-ret, per wrpkru")
        (marginal_words ~bench cfg ~count:(fun c -> c.Cpu.wrpkrus)))
    [ "povray"; "hmmer" ]

(* --- translation-cache invalidation ------------------------------------ *)

(* A counted loop whose body is one self-chained block. The [add] at index
   2 is the mutation target of the invalidation tests. *)
let counted_loop_items ~n ~inc =
  let i x = Program.I x in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rcx, 0));
    Program.Label "loop";
    i (Insn.Alu_ri (Insn.Add, Reg.rcx, inc));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

let reset_for_rerun cpu =
  cpu.Cpu.halted <- false;
  cpu.Cpu.rip <- 0

let run_to_halt cpu =
  match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel"

(* A flush leaves cached chain links in place, pointing into the flushed
   generation. The loop block's back edge links to itself; after its body
   is mutated and the cache flushed, the rerun must execute the new code,
   and the stale block must never run again. *)
let stale_links_never_followed () =
  let cpu = Cpu.create () in
  let prog = Program.assemble (counted_loop_items ~n:20 ~inc:1) in
  Cpu.load_program cpu prog;
  run_to_halt cpu;
  match Ublock.peek cpu.Cpu.tcache 2 with
  | None -> Alcotest.fail "loop block not cached after a hot run"
  | Some stale ->
    Alcotest.(check bool) "loop back-edge link populated" true
      (stale.Ublock.succ_taken == stale);
    (Program.code prog).(2) <- Insn.Alu_ri (Insn.Add, Reg.rcx, 3);
    Cpu.flush_translations cpu;
    Alcotest.(check bool) "stale block no longer peekable" true
      (Ublock.peek cpu.Cpu.tcache 2 = None);
    let execs = stale.Ublock.exec_count in
    reset_for_rerun cpu;
    run_to_halt cpu;
    Alcotest.(check int) "rerun executes the mutated body" 60 (Cpu.get_gpr cpu Reg.rcx);
    Alcotest.(check int) "stale block never ran after the flush" execs
      stale.Ublock.exec_count

(* Self-modifying code from inside the running chain: the loop's
   [syscall] ends its first block, and on the 10th call the handler
   rewrites the [add] before it and flushes while that block is the one
   executing. The block in progress is torn down: every later iteration
   runs a fresh translation of the new code, on the fast loop and on the
   hooked loop alike, and the superseded block never runs again. *)
let smc_loop_items ~n =
  let i x = Program.I x in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rcx, 0));
    Program.Label "loop";
    i (Insn.Alu_ri (Insn.Add, Reg.rcx, 1));
    i Insn.Syscall;
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

let smc_flush_tears_down_active_block () =
  List.iter
    (fun hooks ->
      let what s = Printf.sprintf "%s (%s)" s (if hooks then "hooked" else "fast") in
      let cpu = Cpu.create () in
      let prog = Program.assemble (smc_loop_items ~n:30) in
      Cpu.load_program cpu prog;
      if hooks then ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
      let calls = ref 0 and superseded = ref None in
      cpu.Cpu.syscall_handler <-
        (fun cpu ->
          incr calls;
          if !calls = 10 then begin
            superseded :=
              Option.map
                (fun (b : Ublock.block) -> (b, b.Ublock.exec_count))
                (Ublock.peek cpu.Cpu.tcache 2);
            (Program.code prog).(2) <- Insn.Alu_ri (Insn.Add, Reg.rcx, 2);
            Cpu.flush_translations cpu;
            Alcotest.(check bool) (what "flush drops the active block") true
              (Ublock.peek cpu.Cpu.tcache 2 = None)
          end);
      run_to_halt cpu;
      Alcotest.(check int) (what "10 old iterations, then 20 new ones") 50
        (Cpu.get_gpr cpu Reg.rcx);
      match !superseded with
      | None -> if not hooks then Alcotest.fail "loop block not cached when the flush ran"
      | Some (old, execs_at_flush) ->
        Alcotest.(check int) (what "superseded block never ran again") execs_at_flush
          old.Ublock.exec_count;
        Alcotest.(check bool) (what "a fresh block runs the new code") true
          (match Ublock.peek cpu.Cpu.tcache 2 with
          | Some b -> b != old && b.Ublock.exec_count > 0
          | None -> false))
    [ false; true ]

let translation_invalidation () =
  let cpu = Cpu.create () in
  let prog = Program.assemble [ Program.I (Insn.Mov_ri (Reg.rax, 1)); Program.I Insn.Halt ] in
  Cpu.load_program cpu prog;
  run_to_halt cpu;
  Alcotest.(check int) "first run executes original code" 1 (Cpu.get_gpr cpu Reg.rax);
  (* In-place mutation of the code array is invisible to the cached
     translation until flushed — that is the documented contract. *)
  (Program.code prog).(0) <- Insn.Mov_ri (Reg.rax, 2);
  reset_for_rerun cpu;
  run_to_halt cpu;
  Alcotest.(check int) "stale translation still executes old code" 1 (Cpu.get_gpr cpu Reg.rax);
  Cpu.flush_translations cpu;
  reset_for_rerun cpu;
  run_to_halt cpu;
  Alcotest.(check int) "flush_translations picks up mutated code" 2 (Cpu.get_gpr cpu Reg.rax);
  (* The hooked path executes memoized translations too, under the same
     contract. *)
  let hooked_run () =
    let id = Cpu.add_step_hook cpu (fun _ _ -> ()) in
    reset_for_rerun cpu;
    run_to_halt cpu;
    Cpu.remove_step_hook cpu id;
    Cpu.get_gpr cpu Reg.rax
  in
  Alcotest.(check int) "hooked run executes current code" 2 (hooked_run ());
  (Program.code prog).(0) <- Insn.Mov_ri (Reg.rax, 3);
  Alcotest.(check int) "hooked run keeps its translation until flushed" 2 (hooked_run ());
  Cpu.flush_translations cpu;
  Alcotest.(check int) "hooked run picks up mutated code after flush" 3 (hooked_run ());
  (* A hot, self-chained loop mutated in the middle of its block. *)
  let loop = Program.assemble (counted_loop_items ~n:50 ~inc:1) in
  Cpu.load_program cpu loop;
  run_to_halt cpu;
  Alcotest.(check int) "loop runs its original body" 50 (Cpu.get_gpr cpu Reg.rcx);
  (Program.code loop).(2) <- Insn.Alu_ri (Insn.Add, Reg.rcx, 2);
  Cpu.flush_translations cpu;
  reset_for_rerun cpu;
  run_to_halt cpu;
  Alcotest.(check int) "flushed loop runs its mutated body" 100 (Cpu.get_gpr cpu Reg.rcx)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fast_equals_hooked;
    QCheck_alcotest.to_alcotest prop_fast_equals_hooked_techniques;
    Alcotest.test_case "every Insn constructor: translated = interpreted" `Quick
      exhaustive_differential;
    Alcotest.test_case "every Insn constructor: interpreter = block tier" `Quick
      interpreter_equals_block_tier;
    Alcotest.test_case "every Insn constructor: event hooks stay on the block tier" `Quick
      event_hooks_on_block_tier;
    Alcotest.test_case "1-vCPU Machine.run = Cpu.run (quanta 1/7/1000)" `Quick
      machine_single_core_differential;
    Alcotest.test_case "fault inside a block: rip names the faulting instruction" `Quick
      fault_precision_in_block;
    Alcotest.test_case "crypt call-ret: AES rounds allocate nothing" `Quick
      crypt_rounds_allocation_free;
    Alcotest.test_case "MPK call-ret: gate crossings allocate nothing" `Quick
      mpk_gates_allocation_free;
    Alcotest.test_case "flush: stale chain links are never followed" `Quick
      stale_links_never_followed;
    Alcotest.test_case "SMC flush tears down active superseded block" `Quick
      smc_flush_tears_down_active_block;
    Alcotest.test_case "translation cache invalidation" `Quick translation_invalidation;
    Alcotest.test_case "store-buffer collision evicts" `Quick store_buffer_eviction;
    Alcotest.test_case "forwarding only from resident line" `Quick
      store_buffer_forwarding_only_resident;
    Alcotest.test_case "store buffer bounded under streaming" `Quick store_buffer_bounded;
  ]
