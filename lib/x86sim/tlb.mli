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

type t

val create : ?slots:int -> unit -> t
(** Direct-mapped with [slots] entries (default 1024, power of two). *)

val probe : t -> vpn:int -> ept:int -> pt_gen:int -> ept_gen:int -> int
(** Lookup; counts a hit or miss. Returns the entry's packed word (see
    {!slot_info}; always non-negative) on a hit, or [-1] on a miss.
    Entries from other EPT indices or stale generations miss. *)

val slot_index : t -> vpn:int -> int
(** The (direct-mapped) slot a vpn maps to — where {!insert} just put it. *)

val slot_info : t -> int -> int
(** The entry in slot [s], packed into one int —
    [hfn lsl 6 lor pkey lsl 2 lor readable lsl 1 lor writable] — so the
    per-access translation path reads the whole entry as one word. *)

val insert :
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
(** Fill the vpn's slot. [hfn] is the host-physical frame, [readable] is
    false for PROT_NONE pages, and [writable] combines page-table and EPT
    write permission. *)

val flush : t -> unit
(** Full invalidation (CR3 write / mprotect shootdown). *)

val flush_page : t -> vpn:int -> unit
(** invlpg: drop any entry for one page, all EPT tags. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Inserts that displaced a live translation for a {e different} page
    (direct-mapped conflicts). Observability only. *)
