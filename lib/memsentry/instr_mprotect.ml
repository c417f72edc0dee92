open X86sim
open Ms_util

let mapped_len (r : Safe_region.region) = Bitops.align_up Physmem.page_size r.Safe_region.size

let mprotect_seq (r : Safe_region.region) ~prot =
  [
    Insn.Push Reg.rax;
    Insn.Push Reg.rdi;
    Insn.Push Reg.rsi;
    Insn.Push Reg.rdx;
    Insn.Mov_ri (Reg.rax, Cpu.sys_mprotect);
    Insn.Mov_ri (Reg.rdi, r.Safe_region.va);
    Insn.Mov_ri (Reg.rsi, mapped_len r);
    Insn.Mov_ri (Reg.rdx, prot);
    Insn.Syscall;
    Insn.Pop Reg.rdx;
    Insn.Pop Reg.rsi;
    Insn.Pop Reg.rdi;
    Insn.Pop Reg.rax;
  ]

let setup cpu regions =
  List.iter
    (fun (r : Safe_region.region) ->
      Mmu.protect_range cpu.Cpu.mmu ~va:r.Safe_region.va ~len:(mapped_len r) ~readable:false
        ~writable:false)
    regions

let enter regions = List.concat_map (fun r -> mprotect_seq r ~prot:3) regions
let leave regions = List.concat_map (fun r -> mprotect_seq r ~prot:0) regions
