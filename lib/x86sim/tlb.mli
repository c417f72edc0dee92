(** Translation lookaside buffer.

    Entries are tagged with the active EPT index (modeling VPID/EPT-tagged
    TLBs: a [vmfunc] EPT switch does {e not} flush the TLB — a key reason
    VMFUNC switching is cheap). Entries record the page-table and EPT
    generations they were filled under and self-invalidate when either
    structure has changed since, so [mprotect]-style updates are observed
    without an explicit flush at every probe site.

    Protection-key bits are {e not} checked here: like hardware, the pkey
    of the entry is returned and checked against [pkru] on every access,
    which is why [wrpkru] needs no TLB flush. *)

type hit = {
  hfn : int;  (** host-physical frame *)
  readable : bool;  (** false for PROT_NONE pages *)
  writable : bool;  (** page-table and EPT write permission combined *)
  pkey : int;
}

type t

val create : ?slots:int -> unit -> t
(** Direct-mapped with [slots] entries (default 1024, power of two). *)

val probe : t -> vpn:int -> ept:int -> pt_gen:int -> ept_gen:int -> hit option
(** Lookup; counts a hit or miss. Entries from other EPT indices or stale
    generations miss. *)

val probe_slot : t -> vpn:int -> ept:int -> pt_gen:int -> ept_gen:int -> int
(** Allocation-free {!probe}: returns the slot index on a hit (read it with
    the [slot_*] accessors before any other TLB operation) or [-1] on a
    miss. Same hit/miss accounting as {!probe}. *)

val slot_index : t -> vpn:int -> int
(** The (direct-mapped) slot a vpn maps to — where {!insert} just put it. *)

val probe_info : t -> vpn:int -> ept:int -> pt_gen:int -> ept_gen:int -> int
(** {!probe_slot} and {!slot_info} fused into one call: returns the packed
    {!slot_info} word on a hit (always non-negative) or [-1] on a miss.
    Same hit/miss accounting as {!probe}. The per-access translation path
    uses this so a TLB hit costs a single call. *)

val slot_info : t -> int -> int
(** The whole entry packed into one int —
    [hfn lsl 6 lor pkey lsl 2 lor readable lsl 1 lor writable] — so the
    per-access translation path pays one call, not four. *)

val slot_hfn : t -> int -> int
val slot_readable : t -> int -> bool
val slot_writable : t -> int -> bool
val slot_pkey : t -> int -> int

val insert : t -> vpn:int -> ept:int -> pt_gen:int -> ept_gen:int -> hit -> unit

val insert_fields :
  t ->
  vpn:int ->
  ept:int ->
  pt_gen:int ->
  ept_gen:int ->
  hfn:int ->
  readable:bool ->
  writable:bool ->
  pkey:int ->
  unit
(** {!insert} with the entry spread into scalar arguments, so the TLB-fill
    path need not build a [hit] record. *)

val flush : t -> unit
(** Full invalidation (CR3 write / mprotect shootdown). *)

val flush_page : t -> vpn:int -> unit
(** invlpg: drop any entry for one page, all EPT tags. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Inserts that displaced a live translation for a {e different} page
    (direct-mapped conflicts). Observability only. *)

val reset_stats : t -> unit
(** Zero the hit/miss/eviction statistics. *)
