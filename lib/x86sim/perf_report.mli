(** Execution summaries: one place that turns a finished {!Cpu.t} into the
    numbers a performance investigation wants — instruction mix, IPC,
    cache and TLB hit rates, protection-event counts. *)

type t = {
  insns : int;
  cycles : float;
  ipc : float;
  loads : int;
  stores : int;
  calls : int;
  rets : int;
  ind_branches : int;
  syscalls : int;
  bnd_checks : int;
  wrpkrus : int;
  vmfuncs : int;
  vmcalls : int;
  vm_exits : int;
  aes_ops : int;
  faults : int;
  l1_hit_rate : float;  (** of all data-cache accesses *)
  l2_hit_rate : float;  (** of accesses that missed L1 *)
  l3_hit_rate : float;  (** of accesses that missed L2 *)
  tlb_hit_rate : float;
  dram_accesses : int;
  l1_evictions : int;  (** live lines displaced per level (capacity/conflict) *)
  l2_evictions : int;
  l3_evictions : int;
  tlb_evictions : int;  (** live translations displaced by TLB fills *)
  tlb_walk_cycles : int;  (** total page-table-walk latency charged by TLB misses *)
}

val capture_machine : Cpu.t array -> t
(** Machine-wide rollup over cores sharing one memory system: per-core
    state (L1/L2, TLB, instruction counters) sums; shared L3/DRAM counters
    are counted once; [cycles] is the makespan (slowest core) and [ipc]
    the aggregate throughput against it. Raises [Invalid_argument] on an
    empty array. *)

val capture : Cpu.t -> t
(** One core's report: [capture_machine [| cpu |]]. On a multi-core
    machine, note that this core's L3/DRAM numbers are the {e shared
    tier's} socket-wide counters (see {!Cache.l3_hits}). *)

val to_string : t -> string
(** Multi-line human-readable rendering. *)

val to_json : t -> Ms_util.Json.t
(** Stable machine-readable form: an object with one field per record
    field, counters as [Int], rates/cycles as [Float]. Hit rates for
    levels that saw no traffic are 1.0 (never nan), so the JSON is always
    valid and aggregatable. *)

val print : Cpu.t -> unit
