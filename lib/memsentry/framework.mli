(** MemSentry's top-level API (paper Fig. 1).

    Three inputs, exactly as the paper defines them: the {e isolated data}
    (safe regions — here, the module's [sensitive] globals plus any extra
    regions), the {e instrumentation points} (the IR's [safe_access]
    annotations, or a coarse switch-point policy), and the {e isolation
    technique}. [prepare] then builds a ready-to-run machine: a CPU with
    the technique's system state installed (keys, EPTs, bound registers,
    encrypted regions, PROT_NONE mappings) and the instrumented program
    loaded.

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
  cpu : Cpu.t;
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
  ?extra_regions:Safe_region.region list ->
  ?verify:bool ->
  ?optimize:bool ->
  config ->
  Ir.Lower.t ->
  prepared
(** Safe regions = the lowered module's sensitive globals plus
    [extra_regions] (which must already be mapped on a fresh CPU — they
    are re-mapped here). Raises [Invalid_argument] for [Technique.Sgx].

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

val prepare_on :
  ?extra_regions:Safe_region.region list ->
  ?verify:bool ->
  ?optimize:bool ->
  Cpu.t ->
  config ->
  Ir.Lower.t ->
  prepared
(** {!prepare} onto an existing core instead of a fresh [Cpu.create ()] —
    the building block for multi-vCPU preparation. *)

val prepare_baseline : Ir.Lower.t -> prepared
(** Uninstrumented build on an identical machine (the "1.0" of every
    overhead figure). *)

val prepare_baseline_on : Cpu.t -> Ir.Lower.t -> prepared
(** {!prepare_baseline} onto an existing core. *)

val run : ?fuel:int -> prepared -> Cpu.status
(** Execute to completion; faults propagate as {!Fault.Fault}. *)

val overhead : baseline:prepared -> instrumented:prepared -> float
(** Cycle ratio after both have been run. *)

(** {2 Multi-vCPU preparation}

    [prepare_smp ~vcpus] builds an N-core {!Machine}, runs the full
    single-core preparation on core 0 (shared memory state: region
    mappings, page-table permissions, key tables, encrypted images are
    machine-wide), then replicates the {e per-core register} half of the
    technique on each sibling: the loaded program, MPX bounds, a closed
    PKRU, crypt's in-ymm round keys. [Vmfunc] is rejected — the
    hypervisor virtualizes one CPU (multi-vCPU virtualization is a
    ROADMAP item) — as is [Sgx]. *)

type smp = {
  machine : Machine.t;
  prepared : prepared;  (** Core 0's view; [prepared.cpu == Machine.cpu machine 0]. *)
}

val prepare_smp :
  ?vcpus:int ->
  ?extra_regions:Safe_region.region list ->
  ?verify:bool ->
  ?optimize:bool ->
  config ->
  Ir.Lower.t ->
  smp
(** Default [vcpus] is 1, in which case the machine is behaviorally
    identical to {!prepare}'s. *)

val prepare_baseline_smp : ?vcpus:int -> Ir.Lower.t -> smp

val run_smp : ?fuel:int -> ?quantum:int -> smp -> Cpu.status
(** {!Machine.run} on the prepared machine: deterministic round-robin
    interleaving of all vCPUs. *)
