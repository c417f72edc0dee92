(** Gate-site attributed profiling — the paper's §5.5 dynamic analysis as
    a first-class subsystem.

    Attach to a {!Framework.prepared} machine before running it; the
    profiler watches core 0 on the translated fast loop. It installs the
    per-rip class map through {!Fastprof.install}, then a class-transition
    callback and an event hook on core 0, but no step hook, and

    - counts {e crossings} (executions of a gate open/close sequence) and
      {e checks} (executions of an address-based check) per
      {!Sitemap.site}, on class transitions into tagged ranges;
    - reads each site's cycles from core 0's CPI rows, which the pipeline
      keeps per class ({!Fastprof.rows}, {!Fastprof.row_cycles}), so gate
      serialization and cache effects land on the gate that caused them;
      the profiler keeps no cycle count of its own;
    - attributes TLB misses, cache fills below L1, and faults to sites via
      the [rip] carried by typed {!X86sim.Event.t}s, looked up in the
      installed class map ([Cpu.site_of]);
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
(** {!Fastprof.install} the class map (zeroing every core's CPI rows),
    then install the class-transition callback and an event hook on
    core 0. Composes with tracers and analyses; a step hook attached
    beside it only moves the run onto the interpreter, which reports the
    same numbers. A core has one class callback, so a second profiler
    attached to the same core replaces the first's counting. Attach
    before {!Framework.run}. On a multi-vCPU build the siblings' CPI rows
    are kept but their crossings, checks and misses are not counted;
    {!Fastprof.capture} covers every core. *)

val stop : t -> unit
(** Remove the callback and the event hook, read the per-site cycles from
    core 0's CPI rows, and force-close open spans. Call after the run;
    accessors below are meaningful afterwards (per-site cycles only
    then). *)

val rows : t -> row list
(** Per-site stats in site-id order. *)

val residual : t -> residual
val total_crossings : t -> int
val total_checks : t -> int

val overhead_cycles : t -> float
(** Cycles spent executing inserted instructions (sum over sites). *)

val spans : t -> Tracer.span list
val unmatched_exits : t -> int

val residency_histogram : t -> Ms_util.Metrics.t
(** Span durations in cycles. *)

val trace_json : t -> Ms_util.Json.t
(** Chrome trace-event JSON of the spans, each annotated with its gate
    site. *)

val to_json : t -> Ms_util.Json.t
(** Full profile: per-site table, app residual, totals, residency
    percentiles, and the machine's {!Perf_report}. *)
