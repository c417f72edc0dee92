(** Gate-site attributed profiling — the paper's §5.5 dynamic analysis as
    a first-class subsystem.

    Attach to a {!Framework.prepared} machine before running it; the
    profiler watches core 0 on the translated fast loop. It installs the
    sitemap's per-rip class map ({!Sitemap.class_map}), a class-transition
    callback and an event hook, but no step hook, and

    - counts {e crossings} (executions of a gate open/close sequence) and
      {e checks} (executions of an address-based check) per
      {!Sitemap.site}, on class transitions into tagged ranges;
    - attributes cycles to each site: the time from one transition to the
      next is charged to the class that ran in between, so gate
      serialization and cache effects land on the gate that caused them
      (the same sums, exactly, as charging every instruction on its own);
    - attributes TLB misses, cache fills below L1, and faults to sites via
      the [rip] carried by typed {!X86sim.Event.t}s, looked up in the
      class map;
    - records domain-residency spans. For techniques whose gates the CPU
      reports ([wrpkru], [vmfunc]) the hardware events drive the spans;
      for sequence-gated techniques (crypt, mprotect) the profiler injects
      [Event.Seq] gate events at sitemap boundaries — exactly one source
      per technique, so nothing is double counted.

    For MPK, the sum of all sites' crossings equals the machine's
    [wrpkrus] counter: every crossing executes exactly one [wrpkru]. *)

open X86sim

type row = {
  site : Sitemap.site;
  mutable crossings : int;
  mutable checks : int;
  mutable cycles : float;
  mutable tlb_misses : int;
  mutable cache_misses : int;
  mutable faults : int;
}

type residual = {
  mutable r_cycles : float;
  mutable r_tlb_misses : int;
  mutable r_cache_misses : int;
  mutable r_faults : int;
}
(** Everything not attributable to a site: application code. *)

type t

val attach : Framework.prepared -> t
(** Install the class map (as {!Fastprof.install} does, zeroing core 0's
    CPI rows), the class-transition callback and an event hook on core 0.
    Composes with tracers and analyses; a step hook attached beside it
    only moves the run onto the interpreter, which reports the same
    numbers. A core has one class callback, so a second profiler
    attached to the same core replaces the first's counting. Attach
    before {!Framework.run}; cycle accounting starts at the current
    pipeline clock. On a multi-vCPU build the siblings run unprofiled;
    {!Fastprof} covers every core. *)

val stop : t -> unit
(** Remove the callback and the event hook, charge the cycle tail, and
    force-close open spans. Call after the run; accessors below are
    meaningful afterwards (per-site cycles only then). *)

val injects_seq_gates : Technique.t -> bool
(** Whether the profiler supplies [Event.Seq] gate events for this
    technique (crypt, mprotect) because the hardware reports none. *)

val rows : t -> row list
(** Per-site stats in site-id order. *)

val residual : t -> residual
val total_crossings : t -> int
val total_checks : t -> int

val overhead_cycles : t -> float
(** Cycles spent executing inserted instructions (sum over sites). *)

val spans : t -> Tracer.span list
val unmatched_exits : t -> int
val site_of_rip : t -> int -> (Sitemap.site * Sitemap.role) option

val metrics : t -> Ms_util.Metrics.registry
(** Export into a fresh registry: per-site [gate_crossings]/[checks]/
    [tlb_misses]/[cache_misses]/[faults] counters (labels: site, label,
    technique) plus a [residency_cycles] histogram over span durations. *)

val residency_histogram : t -> Ms_util.Metrics.histogram

val trace_json : t -> Ms_util.Json.t
(** Chrome trace-event JSON of the spans, each annotated with its gate
    site. *)

val to_json : t -> Ms_util.Json.t
(** Full profile: per-site table, app residual, totals, residency
    percentiles, and the machine's {!Perf_report}. *)
