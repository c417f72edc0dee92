(** Fast-path microarchitectural profiler.

    Where {!Profiler} watches a run through step/event hooks (forcing the
    CPU off its translated fast loop), this module reads the counters the
    fast path maintains {e anyway}: the per-block execution/edge profile
    kept by {!X86sim.Ublock}, and the CPI-stack cycle accounting kept by
    {!X86sim.Pipeline} — every simulated cycle attributed to exactly one
    of issue/port contention, L1/L2/L3 miss, TLB walk, store-buffer
    stall, gate instruction, or base issue. {!install} additionally maps
    each instruction to its {!Sitemap} site so the CPI stack is kept per
    gate site; without it the whole program lands in one aggregate row.

    The architectural state of a run is byte-identical with or without
    {!install} — the map changes only which accumulation row each cycle
    lands in, never the modeled numbers (invariant-tested). *)

open X86sim

type row = {
  fp_label : string;  (** site label, or ["app"] for row 0 *)
  fp_technique : string;  (** inserting technique, [""] for app *)
  fp_rip : int;  (** site's guarded instruction index, [-1] for app *)
  fp_classes : float array;  (** cycles per {!Pipeline.cls_names} class *)
}

type t = {
  p_workload : string;
  p_technique : string;
  p_cycles : float;  (** pipeline total at capture *)
  p_insns : int;
  p_rows : row list;  (** app row first, then site-id order *)
  p_blocks : Ublock.stat list;  (** executed blocks, entry order *)
  p_traces : Trace.stat list;  (** live superblocks, formation order *)
  p_traces_formed : int;  (** cumulative, includes invalidated traces *)
  p_traces_invalidated : int;
  p_trace_covered : int;  (** retired instructions executed inside superblocks *)
  p_trace_fused : int;  (** macro-fused uop pairs installed at formation *)
  p_trace_slots : int;  (** inline translation slots installed *)
  p_trace_dead_flags : int;  (** dead flag writes elided at formation *)
  p_inline_hits : int;  (** runtime inline-slot short-circuits taken *)
  p_inline_misses : int;  (** runtime inline-slot misses (eager path) *)
  (* Chain-end reason counters: why trace-formation walks stopped — the
     coverage-diagnosis signal (cumulative over every formation attempt). *)
  p_abort_cold : int;  (** stopped at a cold/unbiased conditional branch *)
  p_abort_indirect : int;  (** stopped at a majority-less indirect exit *)
  p_abort_cap : int;  (** stopped at the max_segs/max_insns cap *)
  p_abort_handler : int;  (** stopped at a halt/handler/fall-off terminator *)
  p_compiles : int;
  p_invalidations : int;
  p_l1_evictions : int;
  p_l2_evictions : int;
  p_l3_evictions : int;
  p_tlb_evictions : int;
  p_walk_cycles : int;
}

val install : Framework.prepared -> unit
(** Build the rip → site row map from the prepared sitemap and install it
    ({!Cpu.set_site_rows}): row 0 is application code, row [id + 1] is
    site [id]. Zeroes any prior CPI accumulation. Call before running. *)

val capture : ?workload:string -> Framework.prepared -> t
(** Snapshot every fast-path counter of the (finished) run. Works with or
    without a prior {!install} — without one the CPI stack has only the
    aggregate app row. *)

val install_smp : Framework.smp -> unit
(** {!install} on every vCPU of a multi-core preparation (the sitemap is
    shared — all cores run the same instrumented program). *)

val capture_smp : ?workload:string -> Framework.smp -> t list
(** One profile per vCPU, in core order; [workload] is suffixed with
    ["/coreN"]. Note each core's L3-eviction count aliases the shared
    tier's counter (see {!X86sim.Cache.l3_hits}). *)

val merge : t list -> t
(** Machine-wide rollup of per-core profiles: cycles/instruction counters
    sum, CPI rows merge by (label, rip) with element-wise class addition,
    block stats merge by entry, trace stats merge by entry (execs,
    side exits and cycles sum). Shared-tier L3 evictions are taken once
    (from the first profile), not summed. Workload/technique labels come
    from the first profile. Raises [Invalid_argument] on []. *)

val total_cycles : t -> float
(** Sum over all rows and classes — equals [p_cycles] minus only
    float-addition rounding (the per-issue deltas telescope). *)

val row_cycles : row -> float

val trace_to_json : Trace.stat -> Ms_util.Json.t
(** One formed superblock as a JSON object (the element type of the
    profile's ["traces"."list"]); exposed for artifacts that embed the
    formed-trace list without a full profile (bench edgeprof). *)

val to_json : t -> Ms_util.Json.t
(** Self-contained profile artifact: CPI rows, block/edge profile (the
    superblock tier's input), formed-superblock list with coverage
    counters, translation-cache and memory-system counters. Round-trips
    through {!of_json}. *)

val of_json : Ms_util.Json.t -> t
(** Raises [Invalid_argument] on a value not produced by {!to_json}.
    Lenient about the ["traces"] section (absent in profiles captured
    before the trace tier existed: zero counts, empty list). *)

type regression = {
  rg_label : string;
  rg_rip : int;
  rg_before : float;  (** row cycles in the baseline profile *)
  rg_after : float;
  rg_ratio : float;  (** after / before ([infinity] for a new row) *)
}

val diff : threshold:float -> before:t -> after:t -> regression list
(** Per-site cycle regressions: rows of [after] (matched to [before] by
    label and rip) whose cycles grew by more than [threshold]
    (e.g. [0.05] = 5%), worst ratio first. Rows absent from [before]
    with nonzero cycles are flagged with [rg_ratio = infinity]. *)

val stacks : t -> (string list * float) list
(** The profile as weighted [technique; site; class] frame stacks for
    {!Ms_util.Flamegraph} (one entry per nonzero row/class cell). *)
