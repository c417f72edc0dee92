(* The hardware-feature substrates: vmx (hypervisor, sandbox, vmfunc),
   mpx bounds conventions, mpk key management, and SGX enclaves. *)

open X86sim

let i x = Program.I x

let secret_va = Layout.heap_base
let secret_len = 4096

let fresh_guest () =
  let cpu = Cpu.create () in
  Mmu.map_range cpu.Cpu.mmu ~va:secret_va ~len:secret_len ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:secret_va 0xC0FFEE;
  let hv = Vmx.Sandbox.enter_secret cpu ~secret_va ~secret_len in
  (cpu, hv)

let run_prog cpu items =
  Cpu.load_program cpu (Program.assemble (items @ [ i Insn.Halt ]));
  Cpu.run cpu

(* --- vmx --- *)

let test_secret_unreachable_in_default_ept () =
  let cpu, hv = fresh_guest () in
  match
    run_prog cpu
      [ i (Insn.Mov_ri (Reg.rbx, secret_va)); i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0)) ]
  with
  | exception Fault.Fault (Fault.Ept_violation _) ->
    Alcotest.(check int) "refusal recorded" 1 (Vmx.Hypervisor.ept_violations_refused hv)
  | _ -> Alcotest.fail "expected EPT violation"
  [@@warning "-33"]

let test_secret_reachable_after_vmfunc () =
  let cpu, _hv = fresh_guest () in
  let status =
    run_prog cpu
      (List.map i (Vmx.Hypervisor.vmfunc_seq ~ept:Vmx.Sandbox.sensitive_ept)
      @ [
          i (Insn.Mov_ri (Reg.rbx, secret_va));
          i (Insn.Load (Reg.r8, Insn.mem ~base:Reg.rbx 0));
        ]
      @ List.map i (Vmx.Hypervisor.vmfunc_seq ~ept:Vmx.Sandbox.nonsensitive_ept))
  in
  Alcotest.(check bool) "ran to completion" true (status = Cpu.Halted);
  Alcotest.(check int) "read the secret" 0xC0FFEE (Cpu.get_gpr cpu Reg.r8);
  Alcotest.(check int) "two EPT switches" 2 cpu.Cpu.counters.Cpu.vmfuncs

let test_nonsecret_reachable_in_both_epts () =
  let cpu, _hv = fresh_guest () in
  let scratch = Layout.heap_base + 0x100000 in
  Mmu.map_range cpu.Cpu.mmu ~va:scratch ~len:4096 ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:scratch 41;
  let status =
    run_prog cpu
      ([ i (Insn.Mov_ri (Reg.rbx, scratch)); i (Insn.Load (Reg.r8, Insn.mem ~base:Reg.rbx 0)) ]
      @ List.map i (Vmx.Hypervisor.vmfunc_seq ~ept:Vmx.Sandbox.sensitive_ept)
      @ [ i (Insn.Load (Reg.r9, Insn.mem ~base:Reg.rbx 0)) ])
  in
  Alcotest.(check bool) "halted" true (status = Cpu.Halted);
  Alcotest.(check int) "EPT0 read" 41 (Cpu.get_gpr cpu Reg.r8);
  Alcotest.(check int) "EPT1 read" 41 (Cpu.get_gpr cpu Reg.r9)

let test_guest_syscall_becomes_hypercall () =
  let cpu, _hv = fresh_guest () in
  let status = run_prog cpu [ i (Insn.Mov_ri (Reg.rax, Cpu.sys_nop)); i Insn.Syscall ] in
  Alcotest.(check bool) "halted" true (status = Cpu.Halted);
  Alcotest.(check int) "syscall counted" 1 cpu.Cpu.counters.Cpu.syscalls;
  Alcotest.(check int) "converted to hypercall" 1 cpu.Cpu.counters.Cpu.vmcalls

let test_mark_secret_hypercall () =
  let cpu = Cpu.create () in
  let region = Layout.heap_base in
  Mmu.map_range cpu.Cpu.mmu ~va:region ~len:4096 ~writable:true;
  let _hv = Vmx.Sandbox.enter cpu in
  (* Guest marks its own region secret, then the default EPT can't see it. *)
  let status =
    run_prog cpu
      [
        i (Insn.Mov_ri (Reg.rax, Vmx.Hypervisor.hc_mark_secret));
        i (Insn.Mov_ri (Reg.rdi, region));
        i (Insn.Mov_ri (Reg.rsi, 4096));
        i (Insn.Mov_ri (Reg.rdx, Vmx.Sandbox.sensitive_ept));
        i Insn.Vmcall;
      ]
  in
  Alcotest.(check bool) "hypercall ok" true (status = Cpu.Halted);
  Alcotest.(check int) "rax = 0" 0 (Cpu.get_gpr cpu Reg.rax);
  match
    run_prog cpu
      [ i (Insn.Mov_ri (Reg.rbx, region)); i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0)) ]
  with
  | exception Fault.Fault (Fault.Ept_violation _) -> ()
  | _ -> Alcotest.fail "secret readable after hc_mark_secret"

let test_vmfunc_bad_index_faults () =
  let cpu, _hv = fresh_guest () in
  match
    run_prog cpu [ i (Insn.Mov_ri (Reg.rax, 0)); i (Insn.Mov_ri (Reg.rcx, 7)); i Insn.Vmfunc ]
  with
  | exception Fault.Fault (Fault.Gp_fault _) -> ()
  | _ -> Alcotest.fail "expected #GP for bad EPTP index"

let test_prefault_removes_demand_fill_exits () =
  let cpu, hv = fresh_guest () in
  let scratch = Layout.heap_base + 0x200000 in
  Mmu.map_range cpu.Cpu.mmu ~va:scratch ~len:65536 ~writable:true;
  Vmx.Sandbox.prefault hv ~va:scratch ~len:65536;
  let items =
    i (Insn.Mov_ri (Reg.rbx, scratch))
    :: List.init 16 (fun k -> i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx (k * 4096))))
  in
  let _ = run_prog cpu items in
  Alcotest.(check int) "no exits for prefaulted pages" 0 cpu.Cpu.counters.Cpu.vm_exits

let test_clear_secret_reopens () =
  let cpu, hv = fresh_guest () in
  Vmx.Hypervisor.clear_secret hv ~va:secret_va ~len:secret_len;
  let status =
    run_prog cpu
      [ i (Insn.Mov_ri (Reg.rbx, secret_va)); i (Insn.Load (Reg.r8, Insn.mem ~base:Reg.rbx 0)) ]
  in
  Alcotest.(check bool) "readable again under EPT 0" true (status = Cpu.Halted);
  Alcotest.(check int) "value intact" 0xC0FFEE (Cpu.get_gpr cpu Reg.r8)

let test_ept_map_unmap_iter () =
  let e = Ept.create () in
  Ept.map e ~gfn:5 ~hfn:50 ~readable:true ~writable:false;
  Ept.map e ~gfn:9 ~hfn:90 ~readable:true ~writable:true;
  Alcotest.(check int) "two mapped" 2 (Ept.mapped_count e);
  (match Ept.find e ~gfn:5 with
  | Some (hfn, perm) ->
    Alcotest.(check int) "hfn" 50 hfn;
    Alcotest.(check bool) "read-only" false perm.Ept.writable
  | None -> Alcotest.fail "gfn 5 missing");
  let g = Ept.generation e in
  Ept.unmap e ~gfn:5;
  Alcotest.(check bool) "generation bumped" true (Ept.generation e > g);
  Alcotest.(check bool) "unmapped" true (Ept.find e ~gfn:5 = None);
  let seen = ref [] in
  Ept.iter e (fun gfn (hfn, _) -> seen := (gfn, hfn) :: !seen);
  Alcotest.(check (list (pair int int))) "iter sees survivors" [ (9, 90) ] !seen

let test_hypervisor_rejects_double_virtualization () =
  let cpu = Cpu.create () in
  let _ = Vmx.Sandbox.enter cpu in
  Alcotest.check_raises "double" (Invalid_argument "Hypervisor.create: CPU already virtualized")
    (fun () -> ignore (Vmx.Sandbox.enter cpu))

(* --- mpx --- *)

let test_mpx_partition_setup () =
  let cpu = Cpu.create () in
  Mpx.Bounds.setup_partition cpu;
  Alcotest.(check int) "lower" 0 cpu.Cpu.bnd_lower.(Mpx.Bounds.partition_bnd);
  Alcotest.(check int) "upper" (Layout.sensitive_base - 1)
    cpu.Cpu.bnd_upper.(Mpx.Bounds.partition_bnd)

let test_mpx_check_blocks_sensitive_pointer () =
  let cpu = Cpu.create () in
  match
    run_prog cpu
      (List.map i Mpx.Bounds.setup_insns
      @ [
          i (Insn.Mov_ri (Reg.rcx, Layout.sensitive_base + 64));
          i (Mpx.Bounds.check_before Reg.rcx);
        ])
  with
  | exception Fault.Fault (Fault.Bound_violation _) -> ()
  | _ -> Alcotest.fail "expected #BR"

let test_mpx_check_allows_normal_pointer () =
  let cpu = Cpu.create () in
  let status =
    run_prog cpu
      (List.map i Mpx.Bounds.setup_insns
      @ [ i (Insn.Mov_ri (Reg.rcx, Layout.heap_base)); i (Mpx.Bounds.check_before Reg.rcx) ])
  in
  Alcotest.(check bool) "no fault" true (status = Cpu.Halted)

let test_mpx_table_slots () =
  let cpu = Cpu.create () in
  let table = Mpx.Bounds.table_create cpu in
  Alcotest.(check int) "slot stride" 16
    (Mpx.Bounds.table_slot_va table 1 - Mpx.Bounds.table_slot_va table 0);
  Alcotest.(check bool) "slots mapped" true
    (Mmu.is_mapped cpu.Cpu.mmu ~va:(Mpx.Bounds.table_slot_va table 0));
  Alcotest.check_raises "overflow" (Invalid_argument "Bounds.table_slot_va: slot out of range")
    (fun () -> ignore (Mpx.Bounds.table_slot_va table Mpx.Bounds.table_capacity))

(* --- mpk --- *)

let test_pkey_alloc_exhaustion () =
  Mpk.Pkey.reset_allocator ();
  let keys = List.init 15 (fun _ -> Mpk.Pkey.alloc_key ()) in
  Alcotest.(check (list int)) "keys 1..15" (List.init 15 (fun k -> k + 1)) keys;
  Alcotest.(check bool) "16th fails" true
    (try
       ignore (Mpk.Pkey.alloc_key ());
       false
     with Failure _ -> true);
  Mpk.Pkey.reset_allocator ()

let test_pkey_domain_switch_sequences () =
  Mpk.Pkey.reset_allocator ();
  let cpu = Cpu.create () in
  let key = Mpk.Pkey.alloc_key () in
  let region = Layout.heap_base in
  Mmu.map_range cpu.Cpu.mmu ~va:region ~len:4096 ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:region 1234;
  Mpk.Pkey.assign cpu ~va:region ~len:4096 ~key;
  Mpk.Pkey.close_default cpu ~key ~protection:Mpk.Pkey.No_access;
  (* Closed: read faults. *)
  (match
     run_prog cpu
       [ i (Insn.Mov_ri (Reg.rbx, region)); i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0)) ]
   with
  | exception Fault.Fault (Fault.Pkey_violation _) -> ()
  | _ -> Alcotest.fail "closed region readable");
  (* Open around the access, close after: runs, and region is closed again. *)
  Mpk.Pkey.close_default cpu ~key ~protection:Mpk.Pkey.No_access;
  let status =
    run_prog cpu
      (List.map i Mpk.Pkey.open_seq
      @ [
          i (Insn.Mov_ri (Reg.rbx, region));
          i (Insn.Load (Reg.r8, Insn.mem ~base:Reg.rbx 0));
        ]
      @ List.map i (Mpk.Pkey.close_seq ~key ~protection:Mpk.Pkey.No_access))
  in
  Alcotest.(check bool) "halted" true (status = Cpu.Halted);
  Alcotest.(check int) "read secret" 1234 (Cpu.get_gpr cpu Reg.r8);
  Alcotest.(check int) "pkru closed again"
    (Mpk.Pkey.pkru_close ~key ~protection:Mpk.Pkey.No_access)
    (Cpu.pkru cpu)

let test_pkey_preserving_sequences_keep_registers () =
  Mpk.Pkey.reset_allocator ();
  let cpu = Cpu.create () in
  let key = Mpk.Pkey.alloc_key () in
  let status =
    run_prog cpu
      ([ i (Insn.Mov_ri (Reg.rax, 7)); i (Insn.Mov_ri (Reg.rcx, 8)); i (Insn.Mov_ri (Reg.rdx, 9)) ]
      @ List.map i Mpk.Pkey.open_seq_preserving
      @ List.map i (Mpk.Pkey.close_seq_preserving ~key ~protection:Mpk.Pkey.Read_only))
  in
  Alcotest.(check bool) "halted" true (status = Cpu.Halted);
  Alcotest.(check int) "rax preserved" 7 (Cpu.get_gpr cpu Reg.rax);
  Alcotest.(check int) "rcx preserved" 8 (Cpu.get_gpr cpu Reg.rcx);
  Alcotest.(check int) "rdx preserved" 9 (Cpu.get_gpr cpu Reg.rdx)

let test_pkru_values () =
  Alcotest.(check int) "AD" 0b100 (Mpk.Pkey.pkru_close ~key:1 ~protection:Mpk.Pkey.No_access);
  Alcotest.(check int) "WD" 0b1000 (Mpk.Pkey.pkru_close ~key:1 ~protection:Mpk.Pkey.Read_only);
  Alcotest.(check int) "open" 0 Mpk.Pkey.pkru_open

(* --- sgx --- *)

let test_enclave_isolation_and_calls () =
  Sgx_sim.Enclave.reset_epc ();
  let cpu = Cpu.create () in
  let secret = Bytes.of_string "topsecretkey!!!!" in
  let e = Sgx_sim.Enclave.create cpu ~size:4096 ~init:secret in
  Sgx_sim.Enclave.register_ecall e ~name:"get_byte" (fun mem idx -> Bytes.get_uint8 mem idx);
  Sgx_sim.Enclave.register_ecall e ~name:"set_byte" (fun mem idx ->
      Bytes.set_uint8 mem (idx land 0xfff) 0x5A;
      0);
  let before = Cpu.cycles cpu in
  let v = Sgx_sim.Enclave.ecall e cpu ~name:"get_byte" ~arg:0 in
  Alcotest.(check int) "reads enclave memory" (Char.code 't') v;
  Alcotest.(check bool) "transition cost paid" true
    (Cpu.cycles cpu -. before >= float_of_int Sgx_sim.Enclave.transition_cost);
  ignore (Sgx_sim.Enclave.ecall e cpu ~name:"set_byte" ~arg:3);
  Alcotest.(check int) "mutation visible" 0x5A
    (Sgx_sim.Enclave.ecall e cpu ~name:"get_byte" ~arg:3)

let test_enclave_no_growth_after_first_call () =
  Sgx_sim.Enclave.reset_epc ();
  let cpu = Cpu.create () in
  let e = Sgx_sim.Enclave.create cpu ~size:4096 ~init:Bytes.empty in
  Sgx_sim.Enclave.register_ecall e ~name:"f" (fun _ _ -> 0);
  ignore (Sgx_sim.Enclave.ecall e cpu ~name:"f" ~arg:0);
  Alcotest.(check bool) "frozen" true
    (try
       Sgx_sim.Enclave.register_ecall e ~name:"g" (fun _ _ -> 0);
       false
     with Sgx_sim.Enclave.Enclave_violation _ -> true)

let test_enclave_epc_limit () =
  Sgx_sim.Enclave.reset_epc ();
  let cpu = Cpu.create () in
  let big = Sgx_sim.Enclave.epc_capacity - 4096 in
  let e1 = Sgx_sim.Enclave.create cpu ~size:big ~init:Bytes.empty in
  Alcotest.(check bool) "second too big" true
    (try
       ignore (Sgx_sim.Enclave.create cpu ~size:8192 ~init:Bytes.empty);
       false
     with Sgx_sim.Enclave.Enclave_violation _ -> true);
  Sgx_sim.Enclave.destroy e1;
  (* destroy releases pages *)
  ignore (Sgx_sim.Enclave.create cpu ~size:8192 ~init:Bytes.empty);
  Sgx_sim.Enclave.reset_epc ()

let test_enclave_measurement_stable () =
  Sgx_sim.Enclave.reset_epc ();
  let cpu = Cpu.create () in
  let img = Bytes.of_string "identical image" in
  let a = Sgx_sim.Enclave.create cpu ~size:4096 ~init:img in
  let b = Sgx_sim.Enclave.create cpu ~size:4096 ~init:img in
  let c = Sgx_sim.Enclave.create cpu ~size:4096 ~init:(Bytes.of_string "different image!") in
  Alcotest.(check string) "same image, same digest" (Sgx_sim.Enclave.measurement a)
    (Sgx_sim.Enclave.measurement b);
  Alcotest.(check bool) "different image, different digest" true
    (Sgx_sim.Enclave.measurement a <> Sgx_sim.Enclave.measurement c);
  Sgx_sim.Enclave.reset_epc ()

let suite =
  [
    Alcotest.test_case "vmx: secret blocked under default EPT" `Quick
      test_secret_unreachable_in_default_ept;
    Alcotest.test_case "vmx: secret readable after vmfunc" `Quick
      test_secret_reachable_after_vmfunc;
    Alcotest.test_case "vmx: normal pages visible in both EPTs" `Quick
      test_nonsecret_reachable_in_both_epts;
    Alcotest.test_case "vmx: guest syscall pays hypercall tax" `Quick
      test_guest_syscall_becomes_hypercall;
    Alcotest.test_case "vmx: hc_mark_secret hypercall" `Quick test_mark_secret_hypercall;
    Alcotest.test_case "vmx: vmfunc bad index #GP" `Quick test_vmfunc_bad_index_faults;
    Alcotest.test_case "vmx: prefault avoids demand-fill exits" `Quick
      test_prefault_removes_demand_fill_exits;
    Alcotest.test_case "vmx: double virtualization rejected" `Quick
      test_hypervisor_rejects_double_virtualization;
    Alcotest.test_case "vmx: clear_secret reopens" `Quick test_clear_secret_reopens;
    Alcotest.test_case "vmx: EPT map/unmap/iter" `Quick test_ept_map_unmap_iter;
    Alcotest.test_case "mpx: partition setup" `Quick test_mpx_partition_setup;
    Alcotest.test_case "mpx: check blocks sensitive pointer" `Quick
      test_mpx_check_blocks_sensitive_pointer;
    Alcotest.test_case "mpx: check passes normal pointer" `Quick
      test_mpx_check_allows_normal_pointer;
    Alcotest.test_case "mpx: bound table slots" `Quick test_mpx_table_slots;
    Alcotest.test_case "mpk: allocator exhaustion at 16 domains" `Quick
      test_pkey_alloc_exhaustion;
    Alcotest.test_case "mpk: domain open/close sequences" `Quick
      test_pkey_domain_switch_sequences;
    Alcotest.test_case "mpk: preserving sequences" `Quick
      test_pkey_preserving_sequences_keep_registers;
    Alcotest.test_case "mpk: pkru encodings" `Quick test_pkru_values;
    Alcotest.test_case "sgx: isolation and ecalls" `Quick test_enclave_isolation_and_calls;
    Alcotest.test_case "sgx: no growth after finalize" `Quick
      test_enclave_no_growth_after_first_call;
    Alcotest.test_case "sgx: EPC limit" `Quick test_enclave_epc_limit;
    Alcotest.test_case "sgx: measurement" `Quick test_enclave_measurement_stable;
  ]
