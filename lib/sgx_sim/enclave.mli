(** SGX enclave model.

    Captures exactly the properties the paper evaluates and argues from
    (§3.1 "SGX"): enclave memory is inaccessible to the rest of the
    process (here it is not even part of the simulated address space);
    mappings are {e fixed at finalization} — no growth; total enclave
    memory is bounded by the EPC; entry/exit transitions cost ~7664 cycles
    (Table 4, empty ECALL on the Intel SDK); and code touching secrets
    must be {e moved into} the enclave rather than merely bracketed, which
    is why the interface takes enclave functions rather than
    instrumentation sequences.

    Enclave code is represented as registered OCaml functions over the
    enclave's private memory — the moral equivalent of the
    statically-linked, measured enclave binary blob. *)

type t

val epc_capacity : int
(** Total enclave page cache modeled: 96 MiB (the usable part of the
    128 MiB PRM on contemporary parts). *)

val epc_in_use : unit -> int

val reset_epc : unit -> unit
(** Tests/benchmarks: release all EPC accounting. *)

exception Enclave_violation of string
(** Raised on attempts to grow a finalized enclave, exceed the EPC, or
    call an unregistered entry point. *)

val create : X86sim.Cpu.t -> size:int -> init:Bytes.t -> t
(** Build and finalize an enclave of [size] bytes, initialized with a copy
    of [init] (shorter [init] zero-fills). Counts against the EPC. *)

val measurement : t -> string
(** Hex digest of the initial contents (MRENCLAVE stand-in); stable
    across identical builds. *)

val register_ecall : t -> name:string -> (Bytes.t -> int -> int) -> unit
(** Register an entry point: [f enclave_memory arg]. Must happen before
    any [ecall]; entry points are part of the measured blob, so
    registering after the first call raises {!Enclave_violation}. *)

val ecall : t -> X86sim.Cpu.t -> name:string -> arg:int -> int
(** Synchronous enclave call: pays the enter+exit transition cost on the
    CPU's pipeline, runs the entry point on the private memory, returns
    its result. *)

val transition_cost : int
(** Cycles per enter+exit pair (Table 4: 7664). *)

val destroy : t -> unit
(** Release the EPC pages (EREMOVE). Further ecalls raise. *)
