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

type plan = {
  cfg : config;
  regions : Safe_region.region list;
  program : Program.t;
  sitemap : Sitemap.t;
  opt_stats : Gate_opt.stats option;
}

type prepared = {
  machine : Machine.t;
  cpu : Cpu.t;
  program : Program.t;
  hypervisor : Vmx.Hypervisor.t option;
  plan : plan;
}

(* What a technique is, to the pass and to the loader. [emit] rewrites
   the lowered items; it needs only the config and the regions, never a
   machine. [setup] installs the memory-resident half of the isolation on
   core 0 (region mapping, page-table permissions, key tables, encrypted
   images), once per machine; [sibling] replays the register half on
   every other core: MPX bounds, the closed-by-default PKRU, crypt's
   in-ymm round keys. *)
type row = {
  policy : Gate_analysis.policy option;
  emit :
    Safe_region.region list -> Ir.Lower.mitem list -> Program.item list * Sitemap.t;
  setup : Cpu.t -> Safe_region.region list -> Vmx.Hypervisor.t option;
  sibling : Cpu.t -> unit;
}

let technique_row cfg =
  let technique = Technique.name cfg.technique in
  let checks check label _regions mitems =
    Instr.address_based_sites ~check ~kind:cfg.address_kind ~technique ~label mitems
  in
  let gates brackets label regions mitems =
    let enter, leave = brackets regions in
    Instr.domain_based_sites ~enter ~leave ~policy:cfg.switch_policy ~technique ~label mitems
  in
  let no_setup _ _ = None in
  match cfg.technique with
  | Technique.Sfi ->
    { policy = Some Gate_analysis.Sfi_policy; emit = checks Instr_sfi.check "sfi-mask";
      setup = no_setup; sibling = ignore }
  | Technique.Mpx ->
    { policy = Some Gate_analysis.Mpx_policy; emit = checks Instr_mpx.check "mpx-check";
      setup = (fun cpu _ -> Instr_mpx.setup cpu; None); sibling = Instr_mpx.setup }
  | Technique.Isboxing ->
    (* Free truncation to 4 GiB; safe regions live above the 64 TiB split,
       far outside the reachable window. No machine setup needed. *)
    { policy = Some Gate_analysis.Isboxing_policy;
      emit =
        (fun _ mitems -> Instr.address_based_lea32_sites ~kind:cfg.address_kind ~technique mitems);
      setup = no_setup; sibling = ignore }
  | Technique.Mpk protection ->
    { policy = Some (Gate_analysis.Mpk_policy protection);
      emit = gates (fun _ -> (Instr_mpk.enter, Instr_mpk.leave ~protection)) "wrpkru-pair";
      setup = (fun cpu regions -> Instr_mpk.setup cpu ~protection regions; None);
      sibling = Instr_mpk.close ~protection }
  | Technique.Vmfunc ->
    { policy = Some Gate_analysis.Vmfunc_policy;
      emit = gates (fun _ -> (Instr_vmfunc.enter, Instr_vmfunc.leave)) "vmfunc-pair";
      setup = (fun cpu regions -> Some (Instr_vmfunc.setup cpu regions)); sibling = ignore }
  | Technique.Crypt ->
    let key_location = cfg.crypt_keys and seed = cfg.crypt_seed in
    { policy = Some Gate_analysis.Crypt_policy;
      emit = gates (Instr_crypt.brackets ~key_location) "aes-bracket";
      setup = (fun cpu regions -> Instr_crypt.setup cpu ~key_location ~seed regions; None);
      sibling = (fun cpu -> Instr_crypt.install_keys cpu ~key_location ~seed ()) }
  | Technique.Mprotect ->
    { policy = None;
      emit =
        gates (fun regions -> (Instr_mprotect.enter regions, Instr_mprotect.leave regions))
          "mprotect-pair";
      setup = (fun cpu regions -> Instr_mprotect.setup cpu regions; None); sibling = ignore }
  | Technique.Sgx ->
    let refuse _ _ =
      invalid_arg
        "Framework: SGX isolation requires restructuring code into an enclave; use \
         Sgx_sim.Enclave directly"
    in
    { policy = None; emit = refuse; setup = refuse; sibling = ignore }

let policy_of_config cfg = (technique_row cfg).policy

let emit cfg regions mitems = (technique_row cfg).emit regions mitems

let instrument ?(extra_regions = []) ?(optimize = false) cfg (lowered : Ir.Lower.t) =
  let row = technique_row cfg in
  let regions = Safe_region.of_sensitive_globals lowered @ extra_regions in
  let mitems = lowered.Ir.Lower.mitems in
  let items, sitemap = row.emit regions mitems in
  let items, sitemap, opt_stats =
    match row.policy with
    | Some policy when optimize ->
      let r = Gate_opt.optimize ~policy ~kind:cfg.address_kind items sitemap in
      Log.info (fun m ->
          m "optimized %s: %a" (Technique.name cfg.technique) Gate_opt.pp_stats
            r.Gate_opt.stats);
      (r.Gate_opt.items, r.Gate_opt.sitemap, Some r.Gate_opt.stats)
    | Some _ | None -> (items, sitemap, None)
  in
  let program = Program.assemble items in
  Log.info (fun m ->
      m "instrumented %s: %d regions, %d instructions (%d before instrumentation)"
        (Technique.name cfg.technique) (List.length regions) (Program.length program)
        (List.length mitems));
  { cfg; regions; program; sitemap; opt_stats }

let verify plan =
  Option.map
    (fun policy -> Gate_analysis.analyze ~kind:plan.cfg.address_kind ~policy plan.program)
    (policy_of_config plan.cfg)

let verify_prepared p = verify p.plan

let load ?(vcpus = 1) (lowered : Ir.Lower.t) plan =
  if vcpus < 1 then invalid_arg "Framework.load: need at least one vCPU";
  if vcpus > 1 && plan.cfg.technique = Technique.Vmfunc then
    invalid_arg
      "Framework.load: VMFUNC runs on one vCPU only; the modeled hypervisor virtualizes a single \
       CPU";
  let row = technique_row plan.cfg in
  let machine = Machine.create ~vcpus () in
  let cpu = Machine.cpu machine 0 in
  Ir.Lower.setup_memory cpu lowered;
  (* The regions past the lowered module's own sensitive globals are the
     extra ones, allocated elsewhere: map them on this machine. *)
  let n_globals = List.length (Safe_region.of_sensitive_globals lowered) in
  List.iteri
    (fun i (r : Safe_region.region) ->
      if i >= n_globals then
        Mmu.map_range cpu.Cpu.mmu ~va:r.Safe_region.va ~len:r.Safe_region.size ~writable:true)
    plan.regions;
  let hypervisor = row.setup cpu plan.regions in
  (* Every core runs the same program. *)
  Cpu.load_program cpu plan.program;
  for i = 1 to vcpus - 1 do
    let sibling = Machine.cpu machine i in
    Cpu.load_program sibling plan.program;
    row.sibling sibling
  done;
  { machine; cpu; program = plan.program; hypervisor; plan }

let prepare ?vcpus ?extra_regions ?optimize cfg lowered =
  load ?vcpus lowered (instrument ?extra_regions ?optimize cfg lowered)

(* The baseline's config is never instrumented with: SFI's loader set-up
   is empty, so [load] builds the plain machine. *)
let prepare_baseline (lowered : Ir.Lower.t) =
  load lowered
    {
      cfg = config Technique.Sfi;
      regions = Safe_region.of_sensitive_globals lowered;
      program = Ir.Lower.assemble lowered;
      sitemap = Sitemap.create ();
      opt_stats = None;
    }

let run ?fuel p = Machine.run ?fuel p.machine

let overhead ~baseline ~instrumented =
  Ms_util.Stats.overhead ~baseline:(Machine.max_cycles baseline.machine)
    ~measured:(Machine.max_cycles instrumented.machine)
