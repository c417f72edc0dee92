(** A multi-vCPU machine: N {!Cpu} cores over one shared memory system.

    The shared layer ({!Mmu.shared}) owns physical memory, the page table,
    the EPTP list, the mmap cursor, and the L3+DRAM cache tier; each vCPU
    owns its registers, TLB, PKRU, private L1/L2, pipeline, store buffer,
    and translated-code cache (see DESIGN.md, "Machine model").

    Execution is a deterministic round-robin quantum scheduler: core 0
    runs up to [quantum] instructions, then core 1, and so on, wrapping
    until every core halts or exhausts its fuel. There is no wall-clock or
    host-thread nondeterminism anywhere — two runs of the same machine are
    byte-identical, which is what makes cross-core interleavings (gate
    races, shootdown windows) reproducible and differentially testable.

    Before each quantum, a core takes any pending TLB-shootdown IPI:
    {!Mmu.acknowledge_shootdown} (TLB flush), {!Cpu.flush_translations}
    (predecoded-block cache), and {!Cpu.ipi_deliver_cost} cycles.

    A 1-vCPU machine is {!Cpu.run} on its one core: with no one to
    interleave with, {!run} gives the lone core its whole fuel in one
    slice, and none of the SMP costs arm with a single core attached
    (invariant-tested in [test_fastpath.ml], down to the translated-block
    compile count). This is the machine every single-core build runs on
    ([Memsentry.Framework.prepare] defaults to one vCPU). *)

type t

val create : ?vcpus:int -> ?stack_pages:int -> ?max_frames:int -> unit -> t
(** [vcpus] cores (default 1) over a fresh shared memory system. Core [i]
    gets a [stack_pages]-page stack topping out at
    [Layout.stack_top - i * Layout.stack_stride]. [max_frames] bounds the
    shared frame pool. *)

val vcpus : t -> int
val cpu : t -> int -> Cpu.t
val cpus : t -> Cpu.t array
val shared : t -> Mmu.shared

val default_quantum : int
(** 1000 instructions. *)

val run : ?fuel:int -> ?quantum:int -> t -> Cpu.status
(** Run every core round-robin in [quantum]-instruction slices until all
    halt ([Halted]) or each has retired [fuel] instructions
    ([Out_of_fuel]; default 50 million {e per core}). Cores that halt or
    exhaust fuel early are skipped; the rest keep interleaving. A 1-vCPU
    machine ignores [quantum] and runs its core in one slice. *)

val deliver_shootdown : Cpu.t -> unit
(** Take a pending TLB-shootdown IPI on this core if one is outstanding:
    TLB flush + translated-code invalidation + delivery cost. {!run} calls
    this at every quantum boundary; exposed for harnesses that interleave
    cores manually. *)

val total_insns : t -> int
(** Sum of retired instructions over all cores. *)

val max_cycles : t -> float
(** The slowest core's cycle count — the machine's makespan. *)
