(** Memory management unit: the data path every simulated access takes.

    Translation order mirrors hardware:
    TLB probe -> (miss: page-table walk, then nested EPT walk when
    virtualization is on) -> protection-key check against [pkru] ->
    page/EPT write-permission check -> physical access through the cache
    model.

    The protection-key check happens on {e every} access, including TLB
    hits, because [pkru] is register state — that is what makes [wrpkru]
    domain switches cheap (no TLB maintenance). Conversely [mprotect]-style
    permission changes bump the page-table generation and are modeled with
    an explicit TLB shootdown cost at the syscall site.

    The module is split into a machine-wide {!shared} layer (physical
    memory, page table, EPTP list, mmap cursor, L3+DRAM cache tier,
    shootdown generation) and per-core views [t] (TLB, private L1/L2,
    PKRU, active-EPT selection, walk scratch). [create] builds the
    degenerate one-core machine; {!create_shared} + {!attach} build an SMP
    one.

    There is one checked accessor per operation, and none allocates: each
    returns its value (if any) and leaves the access latency in cycles in
    [last_lat], where the CPU reads it to feed the pipeline model. *)

type shared
(** The machine-wide memory system every attached core shares. *)

type t = {
  phys : Physmem.t;  (** Alias of the shared frame pool, cached at attach. *)
  pt : Pagetable.t;  (** Alias of the shared page table. *)
  pt_gen_cell : int ref;
      (** [Pagetable.generation_cell pt], cached at creation: the
          translation hot path reads the generation through this cell. *)
  shared : shared;
  core : int;  (** This view's core id (0-based attach order). *)
  tlb : Tlb.t;
  cache : Cache.t;  (** Private L1/L2 over the shared L3+DRAM tier. *)
  mutable pkru : int;  (** 32-bit: bits 2k / 2k+1 = AD / WD for key k. *)
  mutable ept_index : int;  (** Active EPT (set by [vmfunc]). *)
  mutable ept_on : bool;
  mutable shoot_seen : int;
      (** Last shootdown generation this core acknowledged; lagging the
          shared generation means an IPI is pending delivery. *)
  mutable last_tlb_miss : bool;
      (** Whether the most recent {!translate_va} missed the TLB and walked the
          tables. Read by the CPU right after an access to emit telemetry
          events. *)
  mutable last_lat : int;
      (** Latency in cycles of the most recent access: the TLB walk after
          {!translate_va}, walk plus cache after the word and block
          accessors. Scratch result field: the CPU's per-instruction path
          reads it instead of receiving a freshly allocated tuple. *)
  mutable walk_cycles : int;
      (** Cumulative page-table-walk latency charged by TLB misses so far —
          the TLB-walk slice of the CPI stack, cross-checkable against
          [Tlb.misses * walk_cost]. *)
}

val create : unit -> t
(** A one-core machine: [attach (create_shared ())]. *)

val create_shared : ?max_frames:int -> unit -> shared
(** A fresh machine-wide memory system with no cores attached.
    [max_frames] bounds the physical frame pool (see {!Physmem.create}). *)

val attach : shared -> t
(** A new core view (fresh TLB, L1/L2, PKRU=0) over [shared]; core ids are
    assigned in attach order. *)

val core_id : t -> int

val core_count : t -> int
(** Number of views attached to this core's shared layer. *)

val walk_cost : t -> int
(** TLB-miss penalty in cycles: [4 * levels] for a native walk, roughly
    2.5x that under nested EPT paging. *)

(** {2 EPTP list (shared; per-core selection lives in [ept_index]/[ept_on])} *)

val ept_list : t -> Ept.t array
val set_ept_list : t -> Ept.t array -> unit

(** {2 Mapping management (the simulated kernel's job)}

    Any operation that revokes translations ([unmap_range],
    [protect_range], [set_pkey_range]) flushes the calling core's TLB
    synchronously and, on a multi-core machine, broadcasts a TLB shootdown:
    the shared generation is bumped so every sibling core has
    {!shootdown_pending} until it calls {!acknowledge_shootdown}. The
    {e correctness} of remote translations never depends on the IPI — the
    page-table generation check on every TLB probe already de-validates
    stale entries the instant the table changes — so the shootdown protocol
    is purely the cost and cache-invalidation model. *)

val map_page : t -> va:int -> writable:bool -> unit
(** Allocate a frame and map the page containing [va]. Idempotent for
    already-present pages (permissions updated). *)

val map_range : t -> va:int -> len:int -> writable:bool -> unit

val unmap_range : t -> va:int -> len:int -> unit

val protect_range : t -> va:int -> len:int -> readable:bool -> writable:bool -> unit
(** mprotect semantics ([readable:false] = PROT_NONE); flushes the TLB.
    Raises [Not_found] on unmapped pages in the range. *)

val set_pkey_range : t -> va:int -> len:int -> key:int -> unit
(** pkey_mprotect semantics; flushes the TLB. *)

val mmap_alloc : t -> len:int -> writable:bool -> int
(** Anonymous mmap: carve [len] bytes (page-rounded, plus a guard page)
    from the machine-wide mmap cursor, map them, and return the base
    address. Cores share one address space, so concurrent allocations
    never overlap. *)

val is_mapped : t -> va:int -> bool

(** {2 TLB shootdown protocol} *)

val shootdown_pending : t -> bool
(** A sibling core revoked translations since this core last acknowledged. *)

val acknowledge_shootdown : t -> bool
(** Deliver a pending shootdown IPI: flush this core's TLB and catch up to
    the shared generation. Returns whether anything was pending — the
    scheduler charges IPI delivery cost and invalidates the translated-code
    cache exactly when this returns [true]. *)

val shootdown_count : t -> int
(** Total shootdown broadcasts on this machine (telemetry). *)

(** {2 Translation and access} *)

val translate_va : t -> va:int -> access:Fault.access -> int
(** The physical address of [va], or a fault. The TLB-walk latency is
    left in [last_lat]; cache latency is added by the word and block
    accessors. *)

val read64_fast : t -> va:int -> int
(** 64-bit read: the value is returned, the total latency (walk + cache)
    is left in [last_lat]. *)

val write64_fast : t -> va:int -> int -> unit
(** 64-bit write, latency left in [last_lat]. *)

val read_block16_into : t -> va:int -> dst:Bytes.t -> dpos:int -> unit
(** 16-byte read (xmm load), blitted straight into [dst] at [dpos];
    latency left in [last_lat]. [va] must be 16-byte aligned (GP fault
    otherwise, matching movdqa), so a block never crosses a page. *)

val write_block16_from : t -> va:int -> src:Bytes.t -> spos:int -> unit
(** 16-byte write (xmm store) blitted straight from [src] at [spos];
    alignment and latency as {!read_block16_into}. *)

(** {2 Raw access (no permission checks, no timing)}

    Used by the simulated kernel/hypervisor and by attack oracles that
    model an "arbitrary read/write primitive" the attacker already has. *)

val peek64 : t -> va:int -> int
(** Raises {!Fault.Fault} [Page_fault] if unmapped (an attacker probing an
    unmapped hole crashes — the basis of crash-resistance experiments). *)

val poke64 : t -> va:int -> int -> unit

val peek_bytes : t -> va:int -> len:int -> Bytes.t
val poke_bytes : t -> va:int -> Bytes.t -> unit
