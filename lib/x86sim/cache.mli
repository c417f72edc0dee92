(** Data-cache hierarchy latency model.

    Three inclusive set-associative levels over DRAM with the latencies the
    paper's Table 4 takes from Intel's optimization manual: L1 4 cycles,
    L2 12, L3 44, DRAM 251. The model only produces {e latencies} (data
    lives in {!Physmem}); it exists because the cost of register spills and
    of crypt's extra memory traffic — effects the paper calls out — depend
    on locality. *)

type t
(** One core's view of the hierarchy: private L1/L2 plus a reference to a
    {!shared_l3} tier. *)

type shared_l3
(** The socket-level tier — one L3 and one DRAM access counter shared by
    every core attached to it. It keeps its own LRU clock (advanced once
    per L3-tier access) so victim selection reflects socket-wide access
    order; with a single core attached, behavior is bit-identical to the
    pre-split private hierarchy. *)

type served = L1 | L2 | L3 | Dram
(** The level that finally served an access — the telemetry subsystem's
    per-access miss attribution. *)

val create : unit -> t
(** Skylake-like geometry: L1 32 KiB/8-way, L2 256 KiB/8-way,
    L3 8 MiB/16-way, 64-byte lines. Equivalent to
    [create_core (create_shared_l3 ())]. *)

val create_shared_l3 : unit -> shared_l3
(** A fresh L3 (8 MiB/16-way) + DRAM tier with no cores attached. *)

val create_core : shared_l3 -> t
(** A core view with fresh private L1/L2 over the given shared tier. *)

val shared_tier : t -> shared_l3
(** The tier this core view misses into — physical identity matters:
    [shared_tier a == shared_tier b] iff [a] and [b] contend. *)

val access : t -> addr:int -> int
(** Latency in cycles for a data access to physical address [addr],
    updating LRU state and filling on miss (write-allocate; writes and
    reads cost the same here, store latency being hidden by the pipeline
    model). *)

val last_served : t -> served
(** Which level served the most recent {!access} ([L1] before any access).
    Read by the CPU right after the access to emit miss events. *)

val served_name : served -> string

val flush : t -> unit

val l1_hits : t -> int
val l2_hits : t -> int

val l3_hits : t -> int
(** Counted on the {e shared} tier: with several cores attached this is the
    socket-wide total, not one core's share (same for [dram_accesses] and
    [l3_evictions]). Machine-level reports must count it once, not once
    per core. *)

val dram_accesses : t -> int

val l1_evictions : t -> int
(** Line installs that displaced a valid line (conflict/capacity victims).
    Observability only; never consulted by the model. *)

val l2_evictions : t -> int
val l3_evictions : t -> int

val lat_l1 : int
val lat_l2 : int
val lat_l3 : int
val lat_dram : int
