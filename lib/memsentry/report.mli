(** Regenerates the paper's survey tables (1, 2 and 3) as printed reports.

    Tables 1 and 2 are curated data from the paper's defense survey;
    Table 3 is derived from {!Technique} metadata (and cross-checked
    against the implementations by the test suite), so it cannot drift
    from the code. *)

type defense = {
  dname : string;
  protects_reads : bool;
  protects_writes : bool;
  probabilistic : bool;
  deterministic : bool;
  instrumentation : string;
}

val defenses : defense list
(** The thirteen systems of Table 1 (CCFIR ... LR2). *)

type application_row = {
  isolation : string;  (** "Address-based" / "Domain-based" *)
  points : string;  (** instrumentation points *)
  application : string;
}

val applications : application_row list
(** Table 2. *)

val table1 : unit -> string
val table2 : unit -> string
val table3 : unit -> string

val site_table : Profiler.t -> string
(** Per-gate-site attribution table from a stopped profiler: crossings,
    checks, cycles (plus per-event average), attributed TLB/cache misses
    and faults per site, then an application residual row and a totals
    row. The "Cycles" total is overhead cycles only (inserted code). *)

val cpi_table : Fastprof.t -> string
(** CPI-stack table from a fast-path profile: one row per attribution
    row (app + each gate site), one column per {!X86sim.Pipeline} cycle
    class, a per-row total, and a final totals row. Every simulated
    cycle appears in exactly one cell, so the grand total equals the
    run's total cycles (up to float-addition rounding). *)

val hot_blocks_table : ?top:int -> Fastprof.t -> string
(** The [top] (default 10) most-executed basic blocks: entry, covered
    instructions, executions, taken/fall exit counts, and the hot
    indirect successor with its vote share. *)

val edges_of : Fastprof.t -> (int * int * string * int) list
(** CFG edges [(src_entry, dst_entry, kind, count)] derived from the
    block profile. [kind] is ["taken"], ["fall"] or ["indirect"]; for
    indirect exits the count is the Boyer-Moore vote count of the
    majority target (a lower bound on its true frequency). *)

val hot_edges_table : ?top:int -> Fastprof.t -> string
(** The [top] (default 10) hottest CFG edges derived from the block
    profile (taken, fall-through and majority indirect edges). *)

val print_all : unit -> unit
