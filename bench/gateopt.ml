(* Check-motion optimizer evaluation: every fig3-fig6 configuration is
   built twice — instrumented as the overhead figures build it, and again
   with Gate_opt enabled — and the two builds are compared on static
   statistics (sites eliminated / hoisted / coalesced), dynamic profiler
   counts (checks executed, domain crossings), and end-to-end overhead.
   The static cost model is validated against the profiler on every
   optimized build; a final section exercises gate coalescing on an
   At_safe_accesses shadow-stack workload, the one corpus shape with
   adjacent safe-region accesses.

   The target is also the corpus gate: every optimized build is re-run
   through the static verifier, and any verification violation, any
   dynamic count outside its predicted interval, or any build Gate_opt
   rejects sets [Bench_common.failed], so main.exe exits 1.

   Not part of the "all" target: the double builds roughly double the
   figure-sweep cost, and the JSON golden must stay byte-stable. *)

open Ms_util
open X86sim
open Memsentry

(* One instrumented run with the profiler attached, keeping the prepared
   machine so opt_stats / program / sitemap stay readable afterwards. *)
let profiled_run ~optimize prof cfg =
  let p =
    Workloads.Runner.prepare_instrumented ~iterations:!Bench_common.iterations ~optimize prof cfg
  in
  let profiler = Profiler.attach p in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel ->
    failwith (Printf.sprintf "gateopt: %s did not terminate" prof.Workloads.Profile.name));
  Profiler.stop profiler;
  (p, profiler)

type agg = {
  mutable sites : int;
  mutable elim_static : int;
  mutable elim_red : int;
  mutable hoisted : int;
  mutable coalesced : int;
  mutable checks0 : int;  (* dynamic, unoptimized *)
  mutable checks1 : int;  (* dynamic, optimized *)
  mutable cross0 : int;
  mutable cross1 : int;
  mutable ovh0 : float list;  (* per-benchmark overhead, unoptimized *)
  mutable ovh1 : float list;
  mutable exact : int;  (* cost-model validation, optimized build *)
  mutable bounded : int;
  mutable violated : int;
  mutable unsafe : int;  (* verifier violations, optimized build *)
  mutable rejected : int;  (* builds Gate_opt refused *)
}

let fresh_agg () =
  {
    sites = 0;
    elim_static = 0;
    elim_red = 0;
    hoisted = 0;
    coalesced = 0;
    checks0 = 0;
    checks1 = 0;
    cross0 = 0;
    cross1 = 0;
    ovh0 = [];
    ovh1 = [];
    exact = 0;
    bounded = 0;
    violated = 0;
    unsafe = 0;
    rejected = 0;
  }

let measure_config name cfg =
  let a = fresh_agg () in
  let measure prof =
    let base = Workloads.Runner.run_baseline ~iterations:!Bench_common.iterations prof in
    let p0, prof0 = profiled_run ~optimize:false prof cfg in
    let p1, prof1 = profiled_run ~optimize:true prof cfg in
    (match p1.Framework.plan.Framework.opt_stats with
    | None -> ()
    | Some s ->
      a.sites <- a.sites + s.Gate_opt.sites_total;
      a.elim_static <- a.elim_static + s.Gate_opt.eliminated_static;
      a.elim_red <- a.elim_red + s.Gate_opt.eliminated_redundant;
      a.hoisted <- a.hoisted + s.Gate_opt.hoisted;
      a.coalesced <- a.coalesced + s.Gate_opt.coalesced_pairs);
    a.checks0 <- a.checks0 + Profiler.total_checks prof0;
    a.checks1 <- a.checks1 + Profiler.total_checks prof1;
    a.cross0 <- a.cross0 + Profiler.total_crossings prof0;
    a.cross1 <- a.cross1 + Profiler.total_crossings prof1;
    a.ovh0 <- (Cpu.cycles p0.Framework.cpu /. base.Workloads.Runner.cycles) :: a.ovh0;
    a.ovh1 <- (Cpu.cycles p1.Framework.cpu /. base.Workloads.Runner.cycles) :: a.ovh1;
    let plan1 = p1.Framework.plan in
    let model = Cost_model.predict plan1.Framework.program plan1.Framework.sitemap in
    let v = Cost_model.validate model prof1 in
    a.exact <- a.exact + v.Cost_model.n_exact;
    a.bounded <- a.bounded + v.Cost_model.n_bounded;
    a.violated <- a.violated + v.Cost_model.n_violated;
    match Framework.verify plan1 with
    | Some r -> a.unsafe <- a.unsafe + List.length r.Gate_analysis.violations
    | None -> ()
  in
  List.iter
    (fun prof ->
      try measure prof
      with Gate_opt.Rejected msg ->
        Printf.eprintf "%s/%s: %s\n" name prof.Workloads.Profile.name msg;
        a.rejected <- a.rejected + 1)
    Workloads.Spec2006.all;
  a

(* Gate coalescing needs adjacent safe-region accesses; the synthetic
   SPEC profiles annotate none, so borrow the shadow-stack defense: its
   push/pop sequences are exactly the close-then-reopen shape the
   coalescer targets. *)
let shadow_coalescing () =
  let prof = List.hd Workloads.Spec2006.all in
  let region_va = Layout.sensitive_base + 0x1000_0000 in
  let region =
    { Safe_region.va = region_va; size = Defenses.Shadow_stack.default_region_size }
  in
  let cfg =
    Framework.config ~switch_policy:Instr.At_safe_accesses (Technique.Mpk Mpk.Pkey.Read_only)
  in
  let build optimize =
    let lowered =
      Defenses.Shadow_stack.apply ~region_va
        (Workloads.Synth.lowered ~iterations:!Bench_common.iterations prof)
    in
    let p = Framework.prepare ~extra_regions:[ region ] ~optimize cfg lowered in
    let profiler = Profiler.attach p in
    (match Framework.run p with
    | Cpu.Halted -> ()
    | Cpu.Out_of_fuel -> failwith "gateopt: shadow-stack workload did not terminate");
    Profiler.stop profiler;
    (p, profiler)
  in
  let p0, prof0 = build false in
  let p1, prof1 = build true in
  let sname = prof.Workloads.Profile.name in
  let coal =
    match p1.Framework.plan.Framework.opt_stats with
    | Some s -> s.Gate_opt.coalesced_pairs
    | None -> 0
  in
  let crs0 = Profiler.total_crossings prof0 and crs1 = Profiler.total_crossings prof1 in
  let sw0 = p0.Framework.cpu.Cpu.counters.Cpu.wrpkrus
  and sw1 = p1.Framework.cpu.Cpu.counters.Cpu.wrpkrus in
  Printf.printf
    "Gate coalescing (MPK @ safe accesses, shadow-stack-protected %s):\n\
    \  %d close/reopen pairs merged; crossings %d -> %d, executed wrpkru %d -> %d\n"
    sname coal crs0 crs1 sw0 sw1;
  Json.Obj
    [
      ("benchmark", Json.String sname);
      ("coalesced_pairs", Json.Int coal);
      ("crossings_before", Json.Int crs0);
      ("crossings_after", Json.Int crs1);
      ("wrpkru_before", Json.Int sw0);
      ("wrpkru_after", Json.Int sw1);
    ]

let run () =
  let rows =
    List.map (fun (name, cfg) -> (name, measure_config name cfg)) Bench_common.corpus_configs
  in
  print_endline "Check-motion optimizer: static effect, dynamic counts, overhead (all workloads)";
  print_endline "(chk/crs = profiler checks & crossings summed over the corpus; ovh = geomean)";
  let t =
    Table_fmt.create
      [
        "config"; "sites"; "static"; "redund"; "hoist"; "coal"; "chk before"; "chk after";
        "crs before"; "crs after"; "ovh before"; "ovh after";
      ]
  in
  List.iter
    (fun (name, a) ->
      Table_fmt.add_row t
        (name
        :: List.map string_of_int
             [ a.sites; a.elim_static; a.elim_red; a.hoisted; a.coalesced ]
        @ List.map string_of_int [ a.checks0; a.checks1; a.cross0; a.cross1 ]
        @ [ Table_fmt.cell_f (Stats.geomean a.ovh0); Table_fmt.cell_f (Stats.geomean a.ovh1) ]))
    rows;
  Table_fmt.print t;
  print_newline ();
  print_endline
    "Cost model vs profiler, and the verifier (optimized builds; violated, unsafe and \
     rejected must be 0)";
  let v =
    Table_fmt.create
      [ "config"; "sites"; "exact"; "bounded"; "violated"; "unsafe"; "rejected" ]
  in
  List.iter
    (fun (name, a) ->
      Table_fmt.add_row v
        (name
        :: List.map string_of_int
             [ a.exact + a.bounded + a.violated; a.exact; a.bounded; a.violated; a.unsafe;
               a.rejected ]))
    rows;
  Table_fmt.print v;
  print_newline ();
  let shadow =
    match shadow_coalescing () with
    | j -> [ ("shadow_coalescing", j) ]
    | exception Gate_opt.Rejected msg ->
      Printf.eprintf "shadow-stack coalescing: %s\n" msg;
      []
  in
  let sum f = List.fold_left (fun n (_, a) -> n + f a) 0 rows in
  let violated = sum (fun a -> a.violated)
  and unsafe = sum (fun a -> a.unsafe)
  and rejected = sum (fun a -> a.rejected) + if shadow = [] then 1 else 0 in
  if violated + unsafe + rejected > 0 then Bench_common.failed := true;
  Printf.printf "cost-model verdict: %s\n"
    (if violated = 0 then "all dynamic counts inside predicted intervals"
     else "PREDICTION VIOLATIONS FOUND");
  Printf.printf "verifier verdict: %s\n"
    (if unsafe = 0 && rejected = 0 then "all optimized builds verify clean"
     else Printf.sprintf "%d violations, %d rejected builds" unsafe rejected);
  Bench_common.record_json "gateopt"
    (Json.Obj
       (( "configs",
           Json.List
             (List.map
                (fun (name, a) ->
                  Json.Obj
                    [
                      ("config", Json.String name);
                      ("sites", Json.Int a.sites);
                      ("eliminated_static", Json.Int a.elim_static);
                      ("eliminated_redundant", Json.Int a.elim_red);
                      ("hoisted", Json.Int a.hoisted);
                      ("coalesced_pairs", Json.Int a.coalesced);
                      ("dyn_checks_before", Json.Int a.checks0);
                      ("dyn_checks_after", Json.Int a.checks1);
                      ("dyn_crossings_before", Json.Int a.cross0);
                      ("dyn_crossings_after", Json.Int a.cross1);
                      ("overhead_before", Json.Float (Stats.geomean a.ovh0));
                      ("overhead_after", Json.Float (Stats.geomean a.ovh1));
                      ("cost_model_exact", Json.Int a.exact);
                      ("cost_model_bounded", Json.Int a.bounded);
                      ("cost_model_violated", Json.Int a.violated);
                      ("violations", Json.Int a.unsafe);
                      ("rejected", Json.Int a.rejected);
                    ])
                rows) )
       :: shadow))
