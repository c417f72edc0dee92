(** MemSentry's top-level API (paper Fig. 1): the pass and the loader.

    Three inputs, exactly as the paper defines them: the {e isolated data}
    (safe regions — here, the module's [sensitive] globals plus any extra
    regions), the {e instrumentation points} (the IR's [safe_access]
    annotations, or a coarse switch-point policy), and the {e isolation
    technique}. {!instrument} is the pass: it returns a {!plan} (the
    instrumented program, its site map, the regions) and builds no
    machine, so static consumers stop there. {!load} is the loader: it
    builds a {!Machine} (one vCPU unless asked for more) with the
    technique's system state installed (keys, EPTs, bound registers,
    encrypted regions, PROT_NONE mappings) and the program loaded on
    every core. {!prepare} is [load (instrument …)]; the NaCl-style
    "check the output, not the compiler" deployment is {!verify}, then
    {!load} only on a clean report.

    A multi-vCPU build shares the memory-resident half of the set-up
    (region mappings, page-table permissions, key tables, encrypted
    images) machine-wide, and replicates the {e per-core register} half on
    each sibling: the loaded program, MPX bounds, a closed PKRU on the key
    core 0's set-up assigned, crypt's in-ymm round keys. Every core runs
    the same program — N workers over shared memory.

    Typical use:
    {[
      let lowered = Ir.Lower.lower defense_module in
      let cfg = Framework.config (Technique.Mpk No_access) in
      let plan = Framework.instrument cfg lowered in
      (match Framework.verify plan with
       | Some { Gate_analysis.violations = _ :: _; _ } -> failwith "does not verify"
       | Some _ | None -> ());
      Framework.run (Framework.load lowered plan)
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

type plan = {
  cfg : config;
  regions : Safe_region.region list;
      (** The module's sensitive globals, then the [extra_regions]. *)
  program : Program.t;  (** The instrumented, assembled program. *)
  sitemap : Sitemap.t;
      (** Where the pass put its instrumentation (empty for baselines);
          feeds {!Profiler}. *)
  opt_stats : Gate_opt.stats option;
      (** What {!Gate_opt} did, when [instrument ~optimize:true] ran it. *)
}
(** What {!instrument} makes of a lowered module: no machine state. *)

type prepared = {
  machine : Machine.t;
  cpu : Cpu.t;  (** Core 0 of [machine]. *)
  program : Program.t;  (** [plan.program], as loaded on every core. *)
  hypervisor : Vmx.Hypervisor.t option;  (** [Vmfunc] only *)
  plan : plan;  (** What was loaded. *)
}

val instrument :
  ?extra_regions:Safe_region.region list -> ?optimize:bool -> config -> Ir.Lower.t -> plan
(** The pass: instrument the lowered module under [cfg]. Safe regions =
    the module's sensitive globals plus [extra_regions]. Pure — builds no
    machine. Raises [Invalid_argument] for [Technique.Sgx] and for crypt
    regions that are not 16-byte sized and aligned.

    With [~optimize:true] (default false), {!Gate_opt.optimize} runs
    between instrumentation and assembly: dataflow-proven checks are
    eliminated or hoisted and adjacent gate pairs coalesced, with the
    result re-verified ({!Gate_opt.Rejected} propagates if it does not).
    Techniques with no policy ([Mprotect]) are left unoptimized. *)

val emit :
  config -> Safe_region.region list -> Ir.Lower.mitem list -> Program.item list * Sitemap.t
(** The technique's rewrite alone, over raw machine items (what
    {!instrument} applies to a lowered module's items before optional
    optimization and assembly). *)

val verify : plan -> Gate_analysis.report option
(** Statically verify the plan's program under {!policy_of_config}.
    [None] when the technique has no policy. *)

val load : ?vcpus:int -> Ir.Lower.t -> plan -> prepared
(** The loader: build a machine of [vcpus] cores (default 1), lay out
    [lowered]'s memory, map the plan's extra regions (which must already
    be mapped on a fresh CPU — they are re-mapped here), install the
    technique's set-up on core 0 and its register half on each sibling,
    and load the plan's program on every core. [lowered] must be the
    module the plan was instrumented from. Raises [Invalid_argument] for
    [vcpus < 1] and for [Technique.Vmfunc] on more than one vCPU (the
    hypervisor virtualizes a single CPU). *)

val prepare :
  ?vcpus:int ->
  ?extra_regions:Safe_region.region list ->
  ?optimize:bool ->
  config ->
  Ir.Lower.t ->
  prepared
(** [load ?vcpus lowered (instrument ?extra_regions ?optimize cfg
    lowered)]. *)

val policy_of_config : config -> Gate_analysis.policy option
(** The verification policy matching a technique; [None] for techniques
    with nothing to statically verify ([Mprotect], [Sgx]). *)

val verify_prepared : prepared -> Gate_analysis.report option
(** {!verify} of the plan the machine was loaded from. *)

val prepare_baseline : Ir.Lower.t -> prepared
(** Uninstrumented build on an identical one-vCPU machine (the "1.0" of
    every overhead figure), loaded through {!load}. *)

val run : ?fuel:int -> prepared -> Cpu.status
(** {!Machine.run} on the prepared machine: execute to completion (every
    core, deterministically interleaved when there are several; [fuel] is
    per core); faults propagate as {!Fault.Fault}. *)

val overhead : baseline:prepared -> instrumented:prepared -> float
(** Makespan cycle ratio ({!Machine.max_cycles}) after both have been
    run. *)
