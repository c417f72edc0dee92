(** Domain-based isolation via EPT switching (paper §3.1, §5.1).

    Setup virtualizes the process Dune-style (two EPTs), marks the safe
    regions secret (mapped only in the sensitive EPT) and prefaults every
    currently-mapped page so steady-state measurements are not dominated
    by one-time demand-fill exits. A switch is a register-preserving
    [vmfunc] — no VM exit — but the process pays the sandbox tax: every
    syscall becomes a hypercall. *)

val setup : X86sim.Cpu.t -> Safe_region.region list -> Vmx.Hypervisor.t
(** Returns the hypervisor that now runs the CPU. Raises
    [Invalid_argument] if the CPU is already virtualized. *)

val enter : X86sim.Insn.t list
(** Switch to the sensitive EPT (preserves rax/rcx via the stack). *)

val leave : X86sim.Insn.t list
