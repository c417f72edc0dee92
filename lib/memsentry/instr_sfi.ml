open X86sim

let check reg =
  [
    Insn.Mov_ri (Ir.Lower.scratch2, Layout.sfi_mask);
    Insn.Alu_rr (Insn.And, reg, Ir.Lower.scratch2);
  ]
