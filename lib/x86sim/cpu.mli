(** The simulated processor: architectural state, execution and timing.

    [Cpu.t] bundles the register files (GPRs, xmm/ymm, MPX bounds, pkru via
    the MMU), the memory system, the {!Pipeline} timing model and a small
    "operating system" surface (syscall table). Programs are
    {!Program.t} values; [run] executes until [Halt], fault, or fuel
    exhaustion while the pipeline accumulates cycle counts.

    Hypervisor integration (the [vmx] library) happens through three hooks:
    [vmcall_handler] receives explicit hypercalls, [ept_violation_handler]
    receives EPT-violation VM exits and may fix the EPT and retry, and
    [virtualized] switches the CPU into guest mode (in which [syscall]
    additionally pays the hypercall-conversion cost of Dune-style
    process-level virtualization, and [vmfunc]/[vmcall] become available).

    Fault delivery: a faulting instruction increments [counters.faults] and
    consults [fault_handler]; the default re-raises {!Fault.Fault} out of
    [run]. Crash-resistant attack primitives install a [`Skip] handler. *)

type counters = {
  mutable insns : int;
  mutable loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable rets : int;
  mutable ind_branches : int;
  mutable syscalls : int;
  mutable vmfuncs : int;
  mutable vmcalls : int;
  mutable wrpkrus : int;
  mutable aes_ops : int;
  mutable bnd_checks : int;
  mutable faults : int;
  mutable vm_exits : int;
}

type fault_action = Fault_halt | Fault_skip | Fault_reraise

type status = Halted | Out_of_fuel

type t = {
  gpr : int array;
  xmm : Bytes.t;  (** 16 ymm registers x 32 bytes *)
  bnd_lower : int array;
  bnd_upper : int array;
  mutable bnd_enabled : bool;
  mutable cmp : int;  (** flags: last compare/ALU result *)
  mutable rip : int;
  mutable halted : bool;
  mutable virtualized : bool;
  mutable syscall_hypercall_tax : bool;
      (** In guest mode, convert every syscall into a hypercall-priced exit
          (Dune behaviour; default). The VMFUNC ablation clears it to model
          a hypervisor-integrated deployment (e.g. KVM-based). *)
  mutable wrpkru_serialize : bool;
      (** Model wrpkru's ordering requirement (default). The MPK ablation
          clears it to quantify what the implicit fence costs. *)
  mmu : Mmu.t;
  pipe : Pipeline.t;
  sb_line : int array;
      (** Store-to-load ordering, as a bounded direct-mapped store buffer:
          [sb_line.(s)] is the 64-byte line address occupying slot [s]
          ([-1] = empty), [sb_ready.(s)] the {!Pipeline} tick at which the
          stored data becomes forwardable: the store's completion plus the
          forwarding delay (VA-keyed; the machine has no aliasing). A colliding store evicts
          the previous occupant, which can only drop an ordering edge for a
          line whose store retired at least {!val-sb_slots} lines ago. *)
  sb_ready : int array;
  counters : counters;
  mutable site_of : int array;
      (** Per-rip class map: [site_of.(rip)] is instruction [rip]'s
          {e class}, built by {!site_class}. Its {!class_row} is the
          {!Pipeline} row charged for the instruction (0 = the
          un-attributed application row); its {!class_tag} is an opaque
          label the installer chose (MemSentry stores the site's role).
          Before every instruction that runs under the map, the core
          selects the row and, when the class differs from the previous
          instruction's, calls [on_class]. [[||]] (the default) disables
          both. Install via {!set_site_rows}. *)
  mutable cur_class : int;
      (** Class of the last instruction checked against [site_of]
          (0 after {!set_site_rows}). *)
  mutable on_class : t -> int -> unit;
      (** The class-transition callback (see {!set_class_hook}); a no-op
          by default. *)
  mutable program : Program.t;
  mutable tcache : Ublock.cache;
      (** Predecoded translations of [program] (see {!Ublock}): every
          loop executes these instead of re-decoding [Insn.t]s — the
          no-hook fast loop as chained basic blocks, [step] one
          instruction at a time. Swapped automatically when [program]
          changes identity; {!flush_translations} invalidates it after
          in-place mutation of the code array. *)
  traces : Trace.tier;
      (** Always {!Trace.empty}: the deleted trace tier's all-zero
          counters, which the engine benchmark still reads. Removed in
          its next change. *)
  mutable syscall_handler : t -> unit;
  mutable vmcall_handler : t -> unit;
  mutable ept_violation_handler : t -> gpa:int -> access:Fault.access -> bool;
  mutable fault_handler : t -> Fault.t -> fault_action;
  mutable step_hooks : (int * (t -> Insn.t -> unit)) array;
      (** Pre-execution observers, run in registration order on every
          instruction. Dense prefix of length [n_step_hooks]; slots past
          that hold a dummy. Managed with {!add_step_hook} /
          {!remove_step_hook}; several observers (tracer, profiler,
          analyses) coexist. *)
  mutable n_step_hooks : int;
  mutable event_hooks : (int * (Event.t -> unit)) array;
      (** Subscribers to typed machine {!Event.t}s, same dense-prefix
          layout. When [n_event_hooks] is 0 (the default) the CPU skips
          all event construction, keeping the uninstrumented hot path free
          of telemetry cost. *)
  mutable n_event_hooks : int;
  mutable next_hook_id : int;
}

val sb_slots : int
(** Store-buffer capacity (power of two). *)

val create : ?stack_pages:int -> unit -> t
(** A fresh single-core machine with a mapped stack ([stack_pages] pages,
    default 64), [rsp] initialized, an empty program, and the default
    syscall table. Equivalent to [create_on (Mmu.create ())]. *)

val create_on : ?stack_pages:int -> Mmu.t -> t
(** A core over an existing MMU view — how {!Machine} builds vCPUs that
    share one memory system. Core [i]'s stack is mapped at
    [Layout.stack_top - i * Layout.stack_stride], so siblings get disjoint
    stacks in the shared address space. *)

val load_program : t -> Program.t -> unit
(** Install a program and set [rip] to the ["main"] label (or 0). *)

val flush_translations : t -> unit
(** Invalidate every cached translation: bump the block cache's
    generation, which also reaches the hooked path's per-instruction
    translations. Every block entry and every chain-link follow checks
    the generation, so after a flush no stale block runs and no stale
    link is taken. Required only after mutating the installed program's
    code array in place; installing a different program via
    {!load_program} or assigning [program] re-keys the cache
    automatically. *)

(** {2 Hooks and events}

    Both hook lists are composable: any number of observers may attach,
    each gets back an id for targeted removal, and registration order is
    call order.

    Only step hooks cost speed: while one is attached, {!run} executes
    one instruction at a time through {!step}. Event hooks run on the
    translated fast loop, which emits every event with the same [rip]
    and in the same order as {!step}. Per-site observers that need to
    see control move between code regions use the class map instead
    ({!set_site_rows} and {!set_class_hook}), which the fast loop also
    checks. *)

val add_step_hook : t -> (t -> Insn.t -> unit) -> int
(** Attach an observer called before each instruction executes (with the
    machine state as of fetch: [rip] still points at the instruction).
    While any is attached, {!run} stays on the one-instruction
    interpreter. *)

val remove_step_hook : t -> int -> unit
(** Remove by id; unknown ids are ignored. *)

val add_event_hook : t -> (Event.t -> unit) -> int
(** Subscribe to typed events: gate enters/exits ([wrpkru]/[vmfunc]),
    faults, TLB misses, cache fills below L1, and VM exits. Does not take
    the run off the fast loop. An event hook that attaches a step hook
    sees it take effect at the next block-chain boundary. *)

val remove_event_hook : t -> int -> unit

val has_event_hooks : t -> bool

val emit : t -> Event.t -> unit
(** Broadcast an event to all subscribers. The CPU calls this internally
    for hardware-observable events; software layers (the MemSentry
    profiler) use it to inject [Event.Seq] gate events for techniques
    whose gates are instruction sequences with no architectural marker. *)

val cycles : t -> float
(** Cycles accumulated by the pipeline model. *)

val reset_measurement : t -> unit
(** Zero the pipeline clock and counters (not the memory system) so a
    measurement can exclude setup work. *)

val site_class : row:int -> tag:int -> int
(** The class of an instruction charged to pipeline [row] and labelled
    [tag]. Class 0 ([~row:0 ~tag:0]) is application code. Raises
    [Invalid_argument] for a negative tag or a row outside [0, 2{^24}). *)

val class_row : int -> int
val class_tag : int -> int
(** The two halves of a class built by {!site_class}. *)

val set_site_rows : t -> int array -> rows:int -> unit
(** Install a per-instruction class map: [map.(rip)] is instruction
    [rip]'s class ({!site_class}), whose row (in [0, rows)) is charged
    for every cycle the instruction spends issuing. [map] must cover the
    installed program's whole code array, and every class's row must be
    valid. Installs [rows] accumulation rows in the pipeline
    ({!Pipeline.install_rows}), zeroing any prior CPI data, and resets
    [cur_class] to 0. Raises [Invalid_argument] on a short map or
    out-of-range row. *)

val clear_site_rows : t -> unit
(** Drop the class map and return the pipeline to a single aggregate CPI
    row. *)

val set_class_hook : t -> (t -> int -> unit) -> unit
(** Install the one class-transition callback, replacing any previous
    one. Under an installed map, before an instruction executes (where
    {!step} runs its hooks, and before each uop and terminator of a
    translated block), the core compares the instruction's class with
    [cur_class]; when they differ it sets [cur_class] and calls the
    callback with the new class, [rip] naming the instruction. A fault
    or an EPT-violation retry re-enters at an instruction whose class is
    already current, so it reports no transition. *)

val clear_class_hook : t -> unit
(** Restore the no-op callback. *)

(** {2 Register access} *)

val get_gpr : t -> Reg.gpr -> int
val set_gpr : t -> Reg.gpr -> int -> unit

val get_xmm : t -> Reg.xmm -> Bytes.t
(** Low 128 bits, as a fresh 16-byte buffer. *)

val set_xmm : t -> Reg.xmm -> Bytes.t -> unit

val get_ymm_high : t -> Reg.xmm -> Bytes.t
(** Upper 128 bits of the ymm register (where crypt stashes round keys). *)

val set_ymm_high : t -> Reg.xmm -> Bytes.t -> unit

val pkru : t -> int
val set_pkru : t -> int -> unit
(** Kernel-style direct update (tests and setup); programs use [wrpkru]. *)

(** {2 Execution} *)

val step : t -> unit
(** Execute one instruction (with fault handling and EPT-retry): fetch it,
    run the step hooks on it, then execute its memoized translation — the
    same uop the fast loop runs, so attaching hooks never changes what an
    instruction does. *)

val run : ?fuel:int -> t -> status
(** Execute until [Halt] or [fuel] instructions (default 50 million):
    as chained translated blocks while no step hook is attached,
    otherwise one {!step} at a time. *)

(** {2 The built-in syscall table}

    Numbers follow Linux x86-64 where one exists. The default handler
    implements them; custom handlers (e.g. the Dune sandbox) can delegate
    to {!default_syscall_handler}. *)

val sys_write : int
(** 1 — accepted and discarded. *)

val sys_mmap : int
(** 9 — anonymous, returns fresh pages. *)

val sys_mprotect : int
(** 10 — rdi=addr, rsi=len, rdx=prot (1=r, 2=w). *)

val sys_munmap : int
(** 11 — rdi=addr, rsi=len. Pays the kernel cost plus, on a multi-core
    machine, the TLB-shootdown IPI round trips (as do [mprotect] and
    [pkey_mprotect]). *)

val sys_exit : int
(** 60. *)

val sys_pkey_mprotect : int
(** 329 — r10 = key. *)

val sys_nop : int
(** 0 (read): accepted and ignored, pure cost. *)

val sys_io : int
(** 17 (pread64 stand-in): a blocking I/O syscall — pays the syscall cost
    plus {!io_kernel_cost} of kernel/device time. What makes server
    workloads I/O-bound. *)

val default_syscall_handler : t -> unit

(** {2 Cost-model constants (cycles)} *)

val syscall_cost : float
val vmfunc_cost : float
val vmcall_cost : float
val wrpkru_cost : float
val ept_violation_cost : int
val mprotect_kernel_cost : int
val io_kernel_cost : int

val ipi_cost : int
(** Per-remote-core TLB-shootdown round trip charged to the initiating
    core (send IPI + spin for the ack), serializing. Zero remote cores —
    any single-core machine — charge nothing. *)

val ipi_deliver_cost : int
(** Charged to a remote core when it takes a pending shootdown interrupt
    (delivery + local flush), at its next scheduling quantum. *)
