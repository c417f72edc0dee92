(** Address-based isolation by software fault isolation (paper Fig. 2c).

    Before each instrumented access the pointer is ANDed with the partition
    mask, unconditionally forcing it below the 64 TiB split. Purely
    software — runs on any x86-64 — but the mask load + [and] sit on the
    address dependency chain, and a masked wild pointer silently becomes a
    {e different valid pointer} instead of faulting (the paper's
    determinism caveat, demonstrated in the tests). *)

val check : X86sim.Reg.gpr -> X86sim.Insn.t list
(** [movabs r13, 0x3fffffffffff; and reg, r13]. *)
