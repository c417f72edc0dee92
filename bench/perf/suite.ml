(* The benchmark's workloads, the simulation job, and the checks on its
   outputs.

   A workload is a fixed list of simulation instances — (profile, build,
   iterations, run mode) — generated from the seed. One repetition runs
   every instance once, in order, on this domain: a closed loop with one
   client and one simulation at a time. Each instance is a full job, as
   a user of the libraries runs it: synthesise the program, lower it,
   prepare the machine (instrumentation, loading), run it. *)

open Memsentry
module Cpu = X86sim.Cpu
module Profile = Workloads.Profile
module Spec = Workloads.Spec2006

type mode =
  | Plain  (** [Framework.run] on the fast path *)
  | Profiled  (** under [Profiler.attach]: step/event hooks, interpreter *)
  | Fastprof  (** under [Fastprof.install] + [capture]: fast-path counters *)

type inst = {
  prof : Profile.t;
  build : string;  (** "baseline" or the configuration's figure label *)
  cfg : Framework.config option;  (** [None] = uninstrumented baseline *)
  iterations : int;
  mode : mode;
  fig : string;  (** figure the build belongs to ("" outside [figures]) *)
}

let mode_name = function Plain -> "plain" | Profiled -> "profiler" | Fastprof -> "fastprof"
let label i =
  let build = if i.fig = "" then i.build else i.fig ^ "-" ^ i.build in
  Printf.sprintf "%s/%s/%s" i.prof.Profile.name build (mode_name i.mode)

(* Instances with equal keys build the same program: their runs share one
   oracle and one replay. *)
let build_key i = (i.prof.Profile.name, i.fig, i.build)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let mpk policy = Framework.config ~switch_policy:policy (Technique.Mpk Mpk.Pkey.No_access)
let sfi_rw = Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi

(* The figure configurations, named as bench/fig3.ml and
   Bench_common.domain_configs name them (the names key the expected
   files). *)
let figure_configs =
  let addr kind t = Framework.config ~address_kind:kind t in
  let domain policy =
    [
      ("MPK", mpk policy);
      ("VMFUNC", Framework.config ~switch_policy:policy Technique.Vmfunc);
      ("crypt", Framework.config ~switch_policy:policy Technique.Crypt);
    ]
  in
  [
    ( "fig3",
      [
        ("MPX-w", addr Instr.Writes Technique.Mpx);
        ("SFI-w", addr Instr.Writes Technique.Sfi);
        ("MPX-r", addr Instr.Reads Technique.Mpx);
        ("SFI-r", addr Instr.Reads Technique.Sfi);
        ("MPX-rw", addr Instr.Reads_and_writes Technique.Mpx);
        ("SFI-rw", addr Instr.Reads_and_writes Technique.Sfi);
      ] );
    ("fig4", domain Instr.At_call_ret);
    ("fig5", domain Instr.At_indirect_branches);
    ("fig6", domain Instr.At_syscalls);
  ]

(* Seed 0 is the committed profile seeds; seed N shifts every profile's
   generation seed, which changes the synthesised program but not the
   profile's instruction mix or working-set size. *)
let with_seed seed (p : Profile.t) = { p with Profile.seed = p.Profile.seed + (1000 * seed) }

let workload_names = [ "spec-mem"; "spec-cache"; "profiled"; "figures" ]

(* Per workload: simulation iterations of a timed repetition, and the
   smaller iteration count the traced run records and replays (a recorded
   stream costs 8 bytes per instruction and per access). *)
let sizes = function
  | "spec-mem" -> (4000, 600)
  | "spec-cache" -> (8000, 1500)
  | "profiled" -> (1000, 600)
  | "figures" -> (40, 40)
  | w -> invalid_arg ("unknown workload " ^ w)

(* Whether the traced run records and replays an instance's build. The
   figures workload replays only its mcf, hmmer and povray builds (48 of
   304): recording and replaying each build prepares four machines, which
   for all 304 would double the traced run. *)
let replayed name i =
  name <> "figures" || List.mem i.prof.Profile.name [ "429.mcf"; "456.hmmer"; "453.povray" ]

let instances ~seed ~iterations name =
  let prof n = with_seed seed (Spec.find n) in
  let simple profs builds mode =
    List.concat_map
      (fun n ->
        List.map
          (fun (build, cfg) -> { prof = prof n; build; cfg; iterations; mode; fig = "" })
          builds)
      profs
  in
  match name with
  | "spec-mem" -> simple [ "mcf"; "omnetpp" ] [ ("baseline", None); ("SFI-rw", Some sfi_rw) ] Plain
  | "spec-cache" ->
    simple [ "hmmer"; "povray" ]
      [ ("baseline", None); ("MPK-call-ret", Some (mpk Instr.At_call_ret)) ]
      Plain
  | "profiled" ->
    let cr = [ ("MPK-call-ret", Some (mpk Instr.At_call_ret)) ] in
    let profs = [ "mcf"; "hmmer"; "povray" ] in
    simple profs cr Profiled @ simple profs cr Fastprof
  | "figures" ->
    List.concat_map
      (fun p ->
        let p = with_seed seed p in
        { prof = p; build = "baseline"; cfg = None; iterations; mode = Plain; fig = "" }
        :: List.concat_map
             (fun (fig, cfgs) ->
               List.map
                 (fun (build, cfg) ->
                   { prof = p; build; cfg = Some cfg; iterations; mode = Plain; fig })
                 cfgs)
             figure_configs)
      Spec.all
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* One simulation job                                                  *)
(* ------------------------------------------------------------------ *)

(* Functional outcome of a run: every architectural counter plus the
   memory system's hit/miss counts. Must repeat exactly across
   repetitions and match the interpreter oracle. Cycles are kept apart:
   they are compared by [model_drift]. *)
let signature_fields =
  [|
    "insns"; "loads"; "stores"; "calls"; "rets"; "ind_branches"; "syscalls"; "vmfuncs"; "vmcalls";
    "wrpkrus"; "aes_ops"; "bnd_checks"; "faults"; "vm_exits"; "tlb_hits"; "tlb_misses";
    "walk_cycles"; "l1_hits"; "l2_hits"; "l3_hits"; "dram_accesses";
  |]

(* The fields where two signatures differ, as "name a/b". *)
let signature_diff a b =
  List.filter_map
    (fun i ->
      if a.(i) = b.(i) then None
      else Some (Printf.sprintf "%s %d/%d" signature_fields.(i) a.(i) b.(i)))
    (List.init (Array.length a) Fun.id)
  |> String.concat ", "

let signature (cpu : Cpu.t) =
  let c = cpu.Cpu.counters and m = cpu.Cpu.mmu in
  [|
    c.Cpu.insns; c.Cpu.loads; c.Cpu.stores; c.Cpu.calls; c.Cpu.rets; c.Cpu.ind_branches;
    c.Cpu.syscalls; c.Cpu.vmfuncs; c.Cpu.vmcalls; c.Cpu.wrpkrus; c.Cpu.aes_ops; c.Cpu.bnd_checks;
    c.Cpu.faults; c.Cpu.vm_exits; X86sim.Tlb.hits m.X86sim.Mmu.tlb;
    X86sim.Tlb.misses m.X86sim.Mmu.tlb; m.X86sim.Mmu.walk_cycles;
    X86sim.Cache.l1_hits m.X86sim.Mmu.cache; X86sim.Cache.l2_hits m.X86sim.Mmu.cache;
    X86sim.Cache.l3_hits m.X86sim.Mmu.cache; X86sim.Cache.dram_accesses m.X86sim.Mmu.cache;
  |]

(* Trace-tier counters of a finished run: blocks compiled, traces formed,
   instructions retired inside traces, side exits, trace entries, inline
   slot hits and misses. *)
let dispatch (cpu : Cpu.t) =
  let tr = cpu.Cpu.traces in
  let execs, exits =
    List.fold_left
      (fun (e, x) (s : X86sim.Trace.stat) ->
        (e + s.X86sim.Trace.t_execs, x + s.X86sim.Trace.t_side_exits))
      (0, 0) (X86sim.Trace.stats tr)
  in
  [|
    X86sim.Ublock.compiles cpu.Cpu.tcache; tr.X86sim.Trace.formed_count;
    tr.X86sim.Trace.covered_insns; exits; execs; tr.X86sim.Trace.inline_hits;
    tr.X86sim.Trace.inline_misses;
  |]

type sim = {
  inst : inst;
  error : string option;  (** fault or out-of-fuel *)
  sig_ : int array;  (** {!signature}; [sig_.(0)] is retired instructions *)
  cycles : float;
  setup_s : float;  (** synthesis + lowering + prepare *)
  run_s : float;  (** [Framework.run] alone *)
  job_s : float;  (** the whole job, setup through run *)
  disp : int array;  (** {!dispatch} *)
  cpi : float array;  (** cycles per CPI-stack class *)
  events : int;  (** machine events delivered to hooks (traced runs only) *)
  problems : string list;  (** verification or Gate_opt failures *)
  gateopt : int * int;  (** checks removed, sites seen *)
}

let insns s = s.sig_.(0)
let fuel = 500_000_000

let pool_for (cfg : Framework.config option) =
  match cfg with
  | Some { Framework.technique = Technique.Crypt; _ } -> Some Ir.Lower.crypt_xmm_pool
  | Some _ | None -> None

(* Synthesis, lowering and prepare, as [Workloads.Runner] does them: the
   crypt builds lower with the restricted xmm pool, the baseline keeps the
   full one. *)
let build inst =
  let m, synth_s =
    Span.timed "synth" (fun () -> Workloads.Synth.generate ~iterations:inst.iterations inst.prof)
  in
  let lowered, lower_s =
    Span.timed "lower" (fun () -> Ir.Lower.lower ?xmm_pool:(pool_for inst.cfg) m)
  in
  let p, prepare_s =
    Span.timed "prepare" (fun () ->
        match inst.cfg with
        | None -> Framework.prepare_baseline lowered
        | Some cfg -> Framework.prepare cfg lowered)
  in
  (lowered, p, synth_s +. lower_s +. prepare_s)

let run_to_end p =
  Span.timed "run" (fun () ->
      match Framework.run ~fuel p with
      | Cpu.Halted -> None
      | Cpu.Out_of_fuel -> Some "out of fuel"
      | exception X86sim.Fault.Fault f -> Some ("fault: " ^ X86sim.Fault.to_string f))

let verify p =
  match Span.timed "verify" (fun () -> Framework.verify_prepared p) with
  | Some { Gate_analysis.violations = _ :: _ as vs; _ }, _ ->
    [ Printf.sprintf "%d verification violations" (List.length vs) ]
  | (Some _ | None), _ -> []

(* Gate_opt over the instrumented fig3 build: the instrumentation is
   re-run outside [prepare] because [Gate_opt.optimize] consumes the
   item stream and sitemap, which [prepare] does not return. *)
let gateopt (cfg : Framework.config) (lowered : Ir.Lower.t) =
  let check, label, policy =
    match cfg.Framework.technique with
    | Technique.Mpx -> (Instr_mpx.check, "mpx-check", Gate_analysis.Mpx_policy)
    | _ -> (Instr_sfi.check, "sfi-mask", Gate_analysis.Sfi_policy)
  in
  let kind = cfg.Framework.address_kind in
  let (items, sitemap), _ =
    Span.timed "instr" (fun () ->
        Instr.address_based_sites ~check ~kind ~technique:(Technique.name cfg.Framework.technique)
          ~label lowered.Ir.Lower.mitems)
  in
  match Span.timed "gateopt" (fun () -> Gate_opt.optimize ~policy ~kind items sitemap) with
  | r, _ ->
    let s = r.Gate_opt.stats in
    ([], (s.Gate_opt.eliminated_static + s.Gate_opt.eliminated_redundant, s.Gate_opt.sites_total))
  | exception Gate_opt.Rejected msg -> ([ "Gate_opt rejected: " ^ msg ], (0, 0))

let job inst =
  let t0 = Span.now () in
  let lowered, p, setup_s = build inst in
  let cpu = p.Framework.cpu in
  let events = ref 0 in
  let error, run_s =
    match inst.mode with
    | Plain -> run_to_end p
    | Profiled ->
      Span.with_span "profiler" (fun () ->
          let prof = Profiler.attach p in
          if !Span.on then ignore (Cpu.add_event_hook cpu (fun _ -> incr events));
          let r = run_to_end p in
          Profiler.stop prof;
          r)
    | Fastprof ->
      Span.with_span "fastprof" (fun () ->
          Fastprof.install p;
          let r = run_to_end p in
          ignore (Fastprof.capture ~workload:inst.prof.Profile.name p);
          r)
  in
  let job_s = Span.now () -. t0 in
  let problems, gateopt =
    match inst.cfg with
    | Some cfg when inst.fig <> "" ->
      let v = verify p in
      if inst.fig = "fig3" then
        let g, stats = gateopt cfg lowered in
        (v @ g, stats)
      else (v, (0, 0))
    | Some _ | None -> ([], (0, 0))
  in
  {
    inst;
    error;
    sig_ = signature cpu;
    cycles = Cpu.cycles cpu;
    setup_s;
    run_s;
    job_s;
    disp = dispatch cpu;
    cpi = X86sim.Pipeline.cpi_totals cpu.Cpu.pipe;
    events = !events;
    problems;
    gateopt;
  }

(* The interpreter oracle: the same prepared program with a no-op step
   hook attached, which keeps [Cpu.run] off the translated fast path. *)
let oracle inst =
  Span.with_span "oracle" (fun () ->
      let _, p, _ = build inst in
      ignore (Cpu.add_step_hook p.Framework.cpu (fun _ _ -> ()));
      let error, _ = run_to_end p in
      (error, signature p.Framework.cpu, Cpu.cycles p.Framework.cpu))

(* ------------------------------------------------------------------ *)
(* Figures: overheads, geomeans, reference files                       *)
(* ------------------------------------------------------------------ *)

type figures = {
  overheads : ((string * string * string) * float) list;  (** (fig, bench, config) *)
  geomeans : ((string * string) * float) list;  (** (fig, config) *)
  rendered : string;  (** the figures as text tables, as a user reads them *)
}

let figure_report sims =
  let module T = Ms_util.Table_fmt in
  let base = Hashtbl.create 32 and overhead = Hashtbl.create 512 in
  Array.iter
    (fun s -> if s.inst.cfg = None then Hashtbl.replace base s.inst.prof.Profile.name s.cycles)
    sims;
  Array.iter
    (fun s ->
      if s.inst.fig <> "" then
        let b = s.inst.prof.Profile.name in
        Hashtbl.replace overhead (s.inst.fig, b, s.inst.build) (s.cycles /. Hashtbl.find base b))
    sims;
  let benches = Hashtbl.to_seq_keys base |> List.of_seq |> List.sort compare in
  let buf = Buffer.create 4096 in
  let per_fig =
    List.map
      (fun (fig, cfgs) ->
        let rows =
          List.map
            (fun b -> (b, List.map (fun (c, _) -> (c, Hashtbl.find overhead (fig, b, c))) cfgs))
            benches
        in
        let geo = Workloads.Runner.geomean_overheads rows in
        let t = T.create ("benchmark" :: List.map fst cfgs) in
        List.iter (fun (b, row) -> T.add_row t (b :: List.map (fun (_, v) -> T.cell_f v) row)) rows;
        T.add_sep t;
        T.add_row t ("geomean" :: List.map (fun (_, v) -> T.cell_f v) geo);
        Buffer.add_string buf (fig ^ "\n" ^ T.render t);
        ( List.concat_map (fun (b, row) -> List.map (fun (c, v) -> ((fig, b, c), v)) row) rows,
          List.map (fun (c, v) -> ((fig, c), v)) geo ))
      figure_configs
  in
  {
    overheads = List.concat_map fst per_fig;
    geomeans = List.concat_map snd per_fig;
    rendered = Buffer.contents buf;
  }

(* A reference file in the shape bench/main.exe --json writes:
   results.figN.rows[].{benchmark, overheads{config: v}} and
   results.figN.paper_geomean{config: v}. *)
type reference = {
  expected : ((string * string * string) * float) list;
  paper : ((string * string) * float) list;
}

let load_reference file =
  let open Ms_util.Json in
  let j = of_string (In_channel.with_open_bin file In_channel.input_all) in
  let get k j = match member k j with Some v -> v | None -> failwith (file ^ ": missing " ^ k) in
  let num = Metric.num in
  let obj = function Obj kv -> kv | _ -> failwith (file ^ ": expected an object") in
  let figs = List.map fst figure_configs in
  let results = get "results" j in
  let expected =
    List.concat_map
      (fun fig ->
        match get "rows" (get fig results) with
        | List rows ->
          List.concat_map
            (fun row ->
              let bench = match get "benchmark" row with String s -> s | _ -> "" in
              List.map (fun (c, v) -> ((fig, bench, c), num v)) (obj (get "overheads" row)))
            rows
        | _ -> failwith (file ^ ": rows is not a list"))
      figs
  in
  let paper =
    List.concat_map
      (fun fig ->
        List.map (fun (c, v) -> ((fig, c), num v)) (obj (get "paper_geomean" (get fig results))))
      figs
  in
  { expected; paper }

(* Mean |log(model/paper)| over the figure geomeans. *)
let paper_err (ref_ : reference) (f : figures) =
  let errs =
    List.filter_map
      (fun (k, paper) ->
        match List.assoc_opt k f.geomeans with
        | Some model when model > 0.0 && paper > 0.0 -> Some (Float.abs (log (model /. paper)))
        | Some _ | None -> None)
      ref_.paper
  in
  if errs = [] then nan else Ms_util.Stats.mean errs

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)
(* ------------------------------------------------------------------ *)

type rep = {
  sims : sim array;
  wall : float;
  minor_words : float;
  figs : figures option;
}

let run_rep ~index insts =
  (* Every repetition starts from a compacted heap, so its GC work and the
     process's peak memory do not depend on what ran before it. *)
  Gc.compact ();
  Span.rep := index;
  let w0 = Gc.minor_words () in
  let t0 = Span.now () in
  let sims =
    Array.of_list
      (List.mapi
         (fun i inst ->
           Span.job := i;
           job inst)
         insts)
  in
  Span.job := -1;
  let figs =
    if Array.exists (fun s -> s.inst.fig <> "") sims then
      Some (fst (Span.timed "report" (fun () -> figure_report sims)))
    else None
  in
  let wall = Span.now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  Span.rep := -1;
  { sims; wall; minor_words; figs }
