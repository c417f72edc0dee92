(** Measurement harness: run a profile's synthetic program uninstrumented
    and under a MemSentry configuration, and report normalized overhead —
    the quantity on the y-axis of the paper's Figures 3-6.

    The crypt technique gets its workload rebuilt with the restricted xmm
    pool ({!Ir.Lower.crypt_xmm_pool}), modeling the system-wide register
    reservation for the ymm-resident round keys; the baseline it is
    normalized against keeps the full pool, exactly like the paper's
    uninstrumented baseline builds.

    Every run is one {!Memsentry.Framework.prepare}d machine of [vcpus]
    cores (default 1), and every job returns the one {!run_result}: the
    machine's figures plus a row per core. *)

type core_result = {
  cycles : float;
  insns : int;
  ipc : float;
  switch_count : int;  (** executed domain switches (0 for address-based) *)
}
(** One vCPU's figures. *)

type run_result = {
  cycles : float;  (** the makespan: the slowest core's cycles *)
  insns : int;  (** retired instructions, summed over cores *)
  ipc : float;  (** [insns / cycles] *)
  switch_count : int;  (** executed domain switches, summed over cores *)
  per_core : core_result array;  (** core order *)
  utilization : float array;  (** per-core cycles / makespan *)
  shootdowns : int;  (** TLB-shootdown broadcasts, machine-wide *)
}
(** On one vCPU the machine figures are that core's own. *)

val run_baseline : ?iterations:int -> Profile.t -> run_result

val run_with :
  ?iterations:int ->
  ?optimize:bool ->
  ?vcpus:int ->
  Profile.t ->
  Memsentry.Framework.config ->
  run_result
(** [optimize] (default false) runs {!Memsentry.Gate_opt} on the
    instrumented output before loading it. [vcpus] (default 1) runs the
    profile's program on every one of that many cores of one shared
    machine (deterministic round-robin interleaving) — N server workers
    over shared memory. Raises [Invalid_argument] for [Vmfunc] on more
    than one vCPU and for [Sgx] (see {!Memsentry.Framework.prepare}). *)

val lowered :
  ?iterations:int -> ?region_size:int -> Profile.t -> Memsentry.Framework.config -> Ir.Lower.t
(** The profile's program lowered as [cfg]'s measured builds lower it:
    {!Synth.lowered} with crypt's restricted xmm pool for a crypt [cfg]
    and the full pool otherwise. Every instrumented build, static or
    run, starts here. *)

val prepare_instrumented :
  ?iterations:int ->
  ?optimize:bool ->
  ?vcpus:int ->
  Profile.t ->
  Memsentry.Framework.config ->
  Memsentry.Framework.prepared
(** The prepared machine {!run_with} would execute, not yet run — for
    callers that want the program/sitemap (static analysis, cost models)
    with the workload built identically to the measured builds, or that
    instrument the machine first (e.g. {!Memsentry.Fastprof.install}). *)

val overhead_of :
  ?iterations:int -> ?optimize:bool -> Profile.t -> Memsentry.Framework.config -> float
(** [run_with / run_baseline] cycle ratio (1.0 = no overhead). *)

val profile :
  ?iterations:int ->
  ?optimize:bool ->
  Profile.t ->
  Memsentry.Framework.config ->
  Memsentry.Profiler.t * run_result
(** Like {!run_with}, but with a {!Memsentry.Profiler} attached for the
    whole run. The returned profiler is already stopped: its per-site
    table, spans and JSON/trace exports are ready to read. *)

val sweep :
  ?iterations:int ->
  ?jobs:int ->
  Profile.t list ->
  (string * Memsentry.Framework.config) list ->
  (string * (string * float) list) list
(** [sweep profiles configs]: for each profile, the overhead under every
    named config — the data behind one figure. Result: per-profile rows
    [(profile, [(config_name, overhead); ...])].

    [jobs] (default 1) fans the per-profile work out over that many
    domains. Each simulation owns its machine state, and rows are joined
    in profile order, so the result — and therefore every figure and
    [--json] byte — is identical for any [jobs] value. *)

val geomean_overheads : (string * (string * float) list) list -> (string * float) list
(** Column geomeans of a {!sweep} result. *)
