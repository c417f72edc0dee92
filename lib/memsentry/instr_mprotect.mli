(** The traditional POSIX baseline: toggle page permissions per access.

    Safe regions sit PROT_NONE by default; a switch is an [mprotect]
    syscall pair (make accessible / make inaccessible). Every switch pays
    two kernel entries plus TLB shootdowns — the paper's introduction
    quotes 20-50x slowdowns for this strategy, which the [extras]
    benchmark reproduces. *)

val setup : X86sim.Cpu.t -> Safe_region.region list -> unit
(** Map the regions PROT_NONE. *)

val enter : Safe_region.region list -> X86sim.Insn.t list
(** mprotect(PROT_READ|PROT_WRITE) each region; preserves registers. *)

val leave : Safe_region.region list -> X86sim.Insn.t list
(** mprotect(PROT_NONE) each region. *)
