(** Domain-based isolation via protection keys (paper §3.1 "MPK").

    Setup tags every safe region with one protection key and closes it in
    [pkru]; a domain switch is a [wrpkru] pair. The switch sequences
    save/restore rax/rcx/rdx (which [wrpkru] needs in fixed states) — the
    register-clobbering cost the paper highlights. The [protection]
    parameter selects what the {e closed} state forbids: [No_access] for
    confidentiality + integrity, [Read_only] for integrity-only defenses
    such as shadow stacks. *)

val key : int
(** The protection key every safe region is tagged with: [1]. *)

val setup :
  X86sim.Cpu.t -> protection:Mpk.Pkey.protection -> Safe_region.region list -> unit
(** Tag all regions with {!key} (page tables, machine-wide) and {!close}
    the domain on this core. *)

val close : X86sim.Cpu.t -> protection:Mpk.Pkey.protection -> unit
(** Close the domain in this core's [pkru] — the per-core half of
    {!setup}, replayed on every sibling core. *)

val enter : X86sim.Insn.t list
(** Open the sensitive domain (register-preserving wrpkru sequence). *)

val leave : protection:Mpk.Pkey.protection -> X86sim.Insn.t list
