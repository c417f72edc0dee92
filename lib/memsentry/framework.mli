(** MemSentry's top-level API (paper Fig. 1).

    Three inputs, exactly as the paper defines them: the {e isolated data}
    (safe regions — here, the module's [sensitive] globals plus any extra
    regions), the {e instrumentation points} (the IR's [safe_access]
    annotations, or a coarse switch-point policy), and the {e isolation
    technique}. [prepare] then builds a ready-to-run {!Machine} (one vCPU
    unless asked for more) with the technique's system state installed
    (keys, EPTs, bound registers, encrypted regions, PROT_NONE mappings)
    and the instrumented program loaded on every core.

    A multi-vCPU build shares the memory-resident half of the set-up
    (region mappings, page-table permissions, key tables, encrypted
    images) machine-wide, and replicates the {e per-core register} half on
    each sibling: the loaded program, MPX bounds, a closed PKRU on the key
    core 0's set-up assigned, crypt's in-ymm round keys. Every core runs
    the same program — N workers over shared memory.

    Typical use:
    {[
      let lowered = Ir.Lower.lower defense_module in
      let p = Framework.prepare (Framework.config (Technique.Mpk No_access)) lowered in
      Framework.run p
    ]}

    SGX is deliberately rejected here: as the paper argues (§3.1), SGX
    isolation is a program-restructuring exercise (code moves {e into} the
    enclave), not an instrumentation pass — use {!Sgx_sim.Enclave}
    directly. *)

open X86sim

type config = {
  technique : Technique.t;
  address_kind : Instr.access_kind;  (** address-based techniques *)
  switch_policy : Instr.switch_policy;  (** domain-based techniques *)
  crypt_seed : int;  (** key derivation seed for [Crypt] *)
  crypt_keys : Instr_crypt.key_location;  (** [Ymm_high] unless ablating *)
}

val config :
  ?address_kind:Instr.access_kind ->
  ?switch_policy:Instr.switch_policy ->
  ?crypt_seed:int ->
  ?crypt_keys:Instr_crypt.key_location ->
  Technique.t ->
  config
(** Defaults: [Reads_and_writes], [At_safe_accesses], seed 1, [Ymm_high]. *)

type prepared = {
  machine : Machine.t;
  cpu : Cpu.t;  (** Core 0 of [machine]. *)
  program : Program.t;
  regions : Safe_region.region list;
  hypervisor : Vmx.Hypervisor.t option;  (** [Vmfunc] only *)
  cfg : config;
  sitemap : Sitemap.t;
      (** Where the pass put its instrumentation (empty for baselines);
          feeds {!Profiler}. *)
  opt_stats : Gate_opt.stats option;
      (** What {!Gate_opt} did, when [prepare ~optimize:true] ran it. *)
}

val prepare :
  ?vcpus:int ->
  ?extra_regions:Safe_region.region list ->
  ?verify:bool ->
  ?optimize:bool ->
  config ->
  Ir.Lower.t ->
  prepared
(** [vcpus] (default 1) is the core count of the machine built. Safe
    regions = the lowered module's sensitive globals plus [extra_regions]
    (which must already be mapped on a fresh CPU — they are re-mapped
    here). Raises [Invalid_argument] for [Technique.Sgx], for [vcpus < 1],
    and for [Technique.Vmfunc] on more than one vCPU (the hypervisor
    virtualizes a single CPU).

    With [~verify:true] (default false), the instrumented program is run
    through {!Gate_analysis} before loading and [Invalid_argument] is
    raised if it does not verify — the NaCl-style "check the output, not
    the compiler" deployment mode.

    With [~optimize:true] (default false), {!Gate_opt.optimize} runs
    between instrumentation and assembly: dataflow-proven checks are
    eliminated or hoisted and adjacent gate pairs coalesced, with the
    result re-verified ({!Gate_opt.Rejected} propagates if it does not).
    Techniques with no policy ([Mprotect]) are loaded unchanged. *)

val policy_of_config : config -> Gate_analysis.policy option
(** The verification policy matching a technique; [None] for techniques
    with nothing to statically verify ([Mprotect], [Sgx]). *)

val verify_prepared : prepared -> Gate_analysis.report option
(** Statically verify the prepared (already instrumented and assembled)
    program under {!policy_of_config}. [None] when the technique has no
    policy. *)

val prepare_baseline : Ir.Lower.t -> prepared
(** Uninstrumented build on an identical one-vCPU machine (the "1.0" of
    every overhead figure). *)

val run : ?fuel:int -> prepared -> Cpu.status
(** {!Machine.run} on the prepared machine: execute to completion (every
    core, deterministically interleaved when there are several; [fuel] is
    per core); faults propagate as {!Fault.Fault}. *)

val overhead : baseline:prepared -> instrumented:prepared -> float
(** Makespan cycle ratio ({!Machine.max_cycles}) after both have been
    run. *)
