open X86sim

let src = Logs.Src.create "memsentry" ~doc:"MemSentry framework events"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  technique : Technique.t;
  address_kind : Instr.access_kind;
  switch_policy : Instr.switch_policy;
  crypt_seed : int;
  crypt_keys : Instr_crypt.key_location;
}

let config ?(address_kind = Instr.Reads_and_writes) ?(switch_policy = Instr.At_safe_accesses)
    ?(crypt_seed = 1) ?(crypt_keys = Instr_crypt.Ymm_high) technique =
  { technique; address_kind; switch_policy; crypt_seed; crypt_keys }

type prepared = {
  machine : Machine.t;
  cpu : Cpu.t;
  program : Program.t;
  regions : Safe_region.region list;
  hypervisor : Vmx.Hypervisor.t option;
  cfg : config;
  sitemap : Sitemap.t;
  opt_stats : Gate_opt.stats option;
}

let policy_of_config cfg =
  match cfg.technique with
  | Technique.Sfi -> Some Gate_analysis.Sfi_policy
  | Technique.Mpx -> Some Gate_analysis.Mpx_policy
  | Technique.Isboxing -> Some Gate_analysis.Isboxing_policy
  | Technique.Mpk protection -> Some (Gate_analysis.Mpk_policy protection)
  | Technique.Vmfunc -> Some Gate_analysis.Vmfunc_policy
  | Technique.Crypt -> Some Gate_analysis.Crypt_policy
  | Technique.Mprotect | Technique.Sgx -> None

let verify_prepared p =
  match policy_of_config p.cfg with
  | None -> None
  | Some policy ->
    let kind =
      match policy with
      | Gate_analysis.Sfi_policy | Gate_analysis.Mpx_policy | Gate_analysis.Isboxing_policy ->
        p.cfg.address_kind
      | _ -> Instr.Reads_and_writes
    in
    Some (Gate_analysis.analyze ~kind ~policy p.program)

let map_regions cpu regions =
  List.iter
    (fun (r : Safe_region.region) ->
      Mmu.map_range cpu.Cpu.mmu ~va:r.Safe_region.va ~len:r.Safe_region.size ~writable:true)
    regions

(* Memory-resident setup (region mapping, page-table permissions, key
   tables, encrypted images) is machine-wide and done once, on core 0.
   Beside its instrumented items, each technique returns the register
   half of its setup, replayed on every sibling core: MPX bounds, the
   closed-by-default PKRU on the key core 0's setup assigned, crypt's
   in-ymm round keys. *)
let instrument_core0 cpu cfg regions mitems =
  let technique = Technique.name cfg.technique in
  let address_based check label =
    Instr.address_based_sites ~check ~kind:cfg.address_kind ~technique ~label mitems
  in
  let domain_based enter leave label =
    Instr.domain_based_sites ~enter ~leave ~policy:cfg.switch_policy ~technique ~label mitems
  in
  match cfg.technique with
  | Technique.Sfi ->
    Instr_sfi.setup cpu;
    (address_based Instr_sfi.check "sfi-mask", None, ignore)
  | Technique.Mpx ->
    Instr_mpx.setup cpu;
    (address_based Instr_mpx.check "mpx-check", None, Instr_mpx.setup)
  | Technique.Mpk protection ->
    let st = Instr_mpk.setup cpu ~protection regions in
    ( domain_based (Instr_mpk.enter st) (Instr_mpk.leave st) "wrpkru-pair",
      None,
      fun sibling -> Mpk.Pkey.close_default sibling ~key:(Instr_mpk.key st) ~protection )
  | Technique.Vmfunc ->
    let st = Instr_vmfunc.setup cpu regions in
    ( domain_based Instr_vmfunc.enter Instr_vmfunc.leave "vmfunc-pair",
      Some (Instr_vmfunc.hypervisor st),
      ignore )
  | Technique.Crypt ->
    let key_location = cfg.crypt_keys and seed = cfg.crypt_seed in
    let st = Instr_crypt.setup cpu ~key_location ~seed regions in
    ( domain_based (Instr_crypt.enter st) (Instr_crypt.leave st) "aes-bracket",
      None,
      fun sibling -> Instr_crypt.install_keys sibling ~key_location ~seed () )
  | Technique.Mprotect ->
    let st = Instr_mprotect.setup cpu regions in
    (domain_based (Instr_mprotect.enter st) (Instr_mprotect.leave st) "mprotect-pair", None, ignore)
  | Technique.Isboxing ->
    (* Free truncation to 4 GiB; safe regions live above the 64 TiB split,
       far outside the reachable window. No machine setup needed. *)
    (Instr.address_based_lea32_sites ~kind:cfg.address_kind ~technique mitems, None, ignore)
  | Technique.Sgx ->
    invalid_arg
      "Framework.prepare: SGX isolation requires restructuring code into an enclave; use \
       Sgx_sim.Enclave directly"

let create_machine vcpus =
  if vcpus < 1 then invalid_arg "Framework.prepare: need at least one vCPU";
  Machine.create ~vcpus ()

(* Every sibling runs the same program as core 0. *)
let load_siblings machine program setup =
  for i = 1 to Machine.vcpus machine - 1 do
    let cpu = Machine.cpu machine i in
    Cpu.load_program cpu program;
    setup cpu
  done

let prepare ?(vcpus = 1) ?(extra_regions = []) ?(verify = false) ?(optimize = false) cfg
    (lowered : Ir.Lower.t) =
  if vcpus > 1 && cfg.technique = Technique.Vmfunc then
    invalid_arg
      "Framework.prepare: VMFUNC runs on one vCPU only; the modeled hypervisor virtualizes a \
       single CPU";
  let machine = create_machine vcpus in
  let cpu = Machine.cpu machine 0 in
  Ir.Lower.setup_memory cpu lowered;
  let regions = Safe_region.of_sensitive_globals lowered @ extra_regions in
  map_regions cpu extra_regions;
  let mitems = lowered.Ir.Lower.mitems in
  let (items, sitemap), hypervisor, sibling_setup = instrument_core0 cpu cfg regions mitems in
  let items, sitemap, opt_stats =
    if not optimize then (items, sitemap, None)
    else
      match policy_of_config cfg with
      | None -> (items, sitemap, None)
      | Some policy ->
        let kind =
          match policy with
          | Gate_analysis.Sfi_policy | Gate_analysis.Mpx_policy | Gate_analysis.Isboxing_policy
            ->
            cfg.address_kind
          | _ -> Instr.Reads_and_writes
        in
        let r = Gate_opt.optimize ~policy ~kind items sitemap in
        Log.info (fun m ->
            m "optimized %s: %a" (Technique.name cfg.technique) Gate_opt.pp_stats
              r.Gate_opt.stats);
        (r.Gate_opt.items, r.Gate_opt.sitemap, Some r.Gate_opt.stats)
  in
  let program = Program.assemble items in
  Log.info (fun m ->
      m "prepared %s: %d regions, %d instructions (%d before instrumentation)"
        (Technique.name cfg.technique) (List.length regions) (Program.length program)
        (List.length mitems));
  Cpu.load_program cpu program;
  load_siblings machine program sibling_setup;
  let p = { machine; cpu; program; regions; hypervisor; cfg; sitemap; opt_stats } in
  if verify then
    (match verify_prepared p with
    | Some { Gate_analysis.violations = _ :: _ as vs; _ } ->
      invalid_arg
        (Format.asprintf "Framework.prepare: instrumented output failed verification:@.%a"
           (Format.pp_print_list (fun fmt (v : Gate_analysis.finding) ->
                Format.fprintf fmt "  @%d  %s  (%s)" v.index v.insn v.reason))
           vs)
    | Some _ | None -> ());
  p

let prepare_baseline (lowered : Ir.Lower.t) =
  let machine = Machine.create () in
  let cpu = Machine.cpu machine 0 in
  Ir.Lower.setup_memory cpu lowered;
  let program = Ir.Lower.assemble lowered in
  Cpu.load_program cpu program;
  {
    machine;
    cpu;
    program;
    regions = Safe_region.of_sensitive_globals lowered;
    hypervisor = None;
    cfg = config Technique.Sfi;
    sitemap = Sitemap.create ();
    opt_stats = None;
  }

let run ?fuel p = Machine.run ?fuel p.machine

let overhead ~baseline ~instrumented =
  Ms_util.Stats.overhead ~baseline:(Machine.max_cycles baseline.machine)
    ~measured:(Machine.max_cycles instrumented.machine)
