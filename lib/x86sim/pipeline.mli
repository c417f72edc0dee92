(** Out-of-order timing model (scoreboard with execution ports).

    The paper's central microarchitectural observations are all dependency
    effects: an SFI [and] feeding a {e load} costs ~0.2 cycles while the
    same [and] feeding a {e store} costs nothing; a single [bndcu] is nearly
    free because nothing consumes its (nonexistent) result; serializing
    instructions ([wrpkru]+[mfence], [vmfunc], [syscall]) are cheap in an
    empty microbenchmark loop but expensive amid real memory traffic. A
    cycle counter per instruction cannot reproduce any of that; this
    scoreboard does.

    Model: 4-wide in-order fetch, unlimited window, per-port execution
    units, register-ready times, and serializing instructions that wait for
    (and hold back) all in-flight work. Time is kept in int {e ticks} of a
    quarter cycle: one fetch slot is one tick and every latency is a whole
    number of cycles, so fractional fetch bandwidth and sub-cycle marginal
    costs are exact. Floats appear only in the readers ({!cycles},
    {!cpi_totals}, ...), which return cycles.

    Register identifiers are the dense ids of {!Reg.pipe_gpr} etc.;
    [Reg.pipe_none] means "no register". *)

type t

(** Execution ports. Unit counts approximate Skylake: 4 ALU, 2 load,
    1 store-address, 1 branch, 2 MPX check, 1 AES, 1 "special". *)

val p_alu : int
val p_load : int
val p_store : int
val p_branch : int
val p_mpx : int
val p_aes : int
val p_special : int
val p_fp : int

val create : unit -> t

val reset : t -> unit

val ticks_per_cycle : int
(** Scoreboard time unit: 4 ticks per cycle. {!completion} and
    {!set_dep} are in ticks; issue latencies are in whole cycles. *)

val issue :
  t -> s1:int -> s2:int -> d1:int -> lat:int -> busy:int -> serialize:bool -> port:int -> unit
(** Record one executed instruction: source registers [s1], [s2],
    destination register [d1] (pass [Reg.pipe_none] for an absent
    register), result latency [lat] cycles on [port]. [serialize] makes it
    wait for all prior completions and stalls subsequent fetch until it
    completes. [busy] is the port occupancy in cycles: 1 is every port's
    default, larger values model microcoded instructions. Every argument
    is mandatory and an immediate int or bool, so no call allocates. It
    consumes the floor left by {!set_dep}. *)

val set_dep : t -> int -> unit
(** Arm an extra dependency floor (ticks) for the next {!issue} or
    {!issue_packed}: store-to-load ordering through memory. Self-resets
    after that issue. *)

val completion : t -> int
(** Completion time (ticks) of the last issued instruction — what a
    dependent load would pass to {!set_dep}. *)

val pack : s1:int -> s2:int -> s3:int -> d1:int -> d2:int -> lat:int -> port:int -> int
(** Pack one instruction's issue metadata (pipeline-register ids as in
    {!issue}, plus a third source [s3] and a second destination [d2], the
    port, and a static whole-cycle latency) into a single immediate int.
    Computed once per instruction by the {!Ublock} translator; consumed by
    {!issue_packed_static}. *)

val issue_packed : t -> meta:int -> lat:int -> unit
(** Non-serializing issue with the port's default occupancy, the register
    ids and port taken from a {!pack}ed [meta] word and the latency (whole
    cycles) passed explicitly — the form used by translated memory
    operations, whose latency is only known after the MMU access. Consumes
    the {!set_dep} floor. Shares one core with {!issue}. *)

val issue_packed_static : t -> meta:int -> unit
(** {!issue_packed} with the latency also taken from [meta] — the form
    used by translated ALU-like operations whose latency is static. It
    ignores the {!set_dep} floor, which only a load arms. *)

(** {2 CPI-stack accounting}

    Always-on, allocation-free cycle attribution: every issue charges its
    elapsed-cycle delta (change in {!cycles}) to exactly one class below,
    in the current attribution {e row}. Rows let a caller aggregate per
    gate site: install one row per site (plus row 0 for un-attributed
    application cycles) and point {!set_row} at the right one before each
    instruction. With no rows installed everything lands in the single
    default row, so the global CPI stack is available even for
    uninstrumented runs. Deltas telescope: the sum over all rows and
    classes equals {!cycles} exactly. *)

val cls_base : int
(** Steady-state issue: fetch width, dependency chains, L1 hits. Always 0. *)

val cls_l1_miss : int
(** Memory access served by L2. *)

val cls_l2_miss : int
(** Memory access served by L3. *)

val cls_l3_miss : int
(** Memory access served by DRAM. *)

val cls_tlb : int
(** TLB miss: a page-table walk was on the access path. *)

val cls_sb : int
(** Store-buffer: the store-to-load forwarding floor was the binding
    constraint on issue time. *)

val cls_port : int
(** Port contention: the instruction was ready before an execution unit
    on its port was free. *)

val cls_gate : int
(** Gate/serializing instruction: MPX checks, AES crypt ops, and the
    special port (wrpkru, vmfunc, vmcall, syscall, fences). *)

val cls_count : int

val cls_names : string array
(** Human-readable class labels, indexed by class id. *)

val set_cls : t -> int -> unit
(** Override the class of the {e next} issue (used by the CPU to deposit
    the memory-level outcome of an MMU access). Self-resets after one
    issue. *)

val set_row : t -> int -> unit
(** Select the attribution row for subsequent issues. Out-of-range rows
    are ignored (the current row keeps accumulating). *)

val install_rows : t -> int -> unit
(** Allocate [n] fresh attribution rows (at least 1) and select row 0.
    Row 0 is conventionally the un-attributed application row. *)

val cpi_rows : t -> float array
(** A fresh copy of the accumulators in cycles: row-major
    [n_rows * cls_count] totals. *)

val cpi_row_count : t -> int

val cpi_totals : t -> float array
(** Per-class totals summed over all rows (a fresh [cls_count] array). *)

val cycles_accounted : t -> float
(** Sum of every accumulator cell — equals {!cycles} exactly
    (invariant-tested). *)

val cycles : t -> float
(** Total cycles elapsed so far (max of fetch front and latest completion). *)

val instructions : t -> int
(** Instructions issued since creation/reset. *)

val ipc : t -> float
(** Instructions per cycle so far (0 when no time has passed). *)
