(* Check-motion optimizer (Gate_opt) and its static cost model.

   Structure tests drive the three address-based passes (static
   elimination, dominated-redundancy elimination, loop hoisting) on a
   hand-written fixture where the expected decision for every site is
   known; the coalescing pass is exercised on a shadow-stack workload
   under MPK-at-safe-accesses, the close-then-reopen shape it targets.
   QCheck properties re-run the differential generator with optimization
   enabled: optimized builds must preserve semantics and never execute
   more instructions or domain switches than unoptimized ones. *)

open X86sim
open Memsentry
module Cfg = Ir.Cfg

(* --- natural loops ----------------------------------------------------- *)

let loop_of loops header = List.find (fun (l : Cfg.loop) -> l.Cfg.header = header) loops

let test_loops_diamond () =
  (* 0 -> {1,2} -> 3: acyclic, no loops. *)
  let g =
    Cfg.graph ~nnodes:4 ~entries:[ 0 ] ~succs:(function
      | 0 -> [ 1; 2 ]
      | 1 | 2 -> [ 3 ]
      | _ -> [])
  in
  Alcotest.(check int) "no loops" 0 (List.length (Cfg.natural_loops g))

let test_loops_self () =
  let g = Cfg.graph ~nnodes:2 ~entries:[ 0 ] ~succs:(function 0 -> [ 0; 1 ] | _ -> []) in
  let loops = Cfg.natural_loops g in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = loop_of loops 0 in
  Alcotest.(check (list int)) "body" [ 0 ] l.Cfg.body;
  Alcotest.(check (list int)) "latches" [ 0 ] l.Cfg.latches;
  Alcotest.(check int) "depth" 1 l.Cfg.depth

let test_loops_nested () =
  (* 0 -> 1 -> 2, 2 -> 2 (inner), 2 -> 3, 3 -> 1 (outer), 3 -> 4. *)
  let g =
    Cfg.graph ~nnodes:5 ~entries:[ 0 ] ~succs:(function
      | 0 -> [ 1 ]
      | 1 -> [ 2 ]
      | 2 -> [ 2; 3 ]
      | 3 -> [ 1; 4 ]
      | _ -> [])
  in
  let loops = Cfg.natural_loops g in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let outer = loop_of loops 1 and inner = loop_of loops 2 in
  Alcotest.(check (list int)) "outer body" [ 1; 2; 3 ] outer.Cfg.body;
  Alcotest.(check (list int)) "inner body" [ 2 ] inner.Cfg.body;
  Alcotest.(check int) "outer depth" 1 outer.Cfg.depth;
  Alcotest.(check int) "inner depth" 2 inner.Cfg.depth;
  (match inner.Cfg.parent with
  | Some i -> Alcotest.(check int) "inner nests in outer" 1 (List.nth loops i).Cfg.header
  | None -> Alcotest.fail "inner loop has no parent");
  let depth_of = Cfg.loop_depth_of_node g loops in
  Alcotest.(check int) "node 0 depth" 0 (depth_of 0);
  Alcotest.(check int) "node 2 depth" 2 (depth_of 2);
  Alcotest.(check int) "node 3 depth" 1 (depth_of 3)

let test_loops_irreducible () =
  (* Two-entry cycle 1 <-> 2, both reachable from 0: no dominating
     header, so no natural loop is reported. *)
  let g =
    Cfg.graph ~nnodes:3 ~entries:[ 0 ] ~succs:(function
      | 0 -> [ 1; 2 ]
      | 1 -> [ 2 ]
      | 2 -> [ 1 ]
      | _ -> [])
  in
  Alcotest.(check int) "irreducible: none" 0 (List.length (Cfg.natural_loops g))

(* --- address-based passes on a known fixture --------------------------- *)

(* Mirrors test/data/gateopt_clean.s: one constant-pointer access
   (statically eliminable), two same-operand accesses with no clobber
   between them (second is dominated-redundant), and a loop-body access
   through a loop-invariant pointer (hoistable). *)
let fixture_asm =
  "main:\n\
  \  mov rbx, 0x10000000\n\
  \  mov rax, [rbx]\n\
  \  mov rdx, [0x2000]\n\
  \  mov rcx, [rdx]\n\
  \  mov r8, [rdx]\n\
  \  mov rcx, 4\n\
   loop:\n\
  \  mov rax, [rdx+8]\n\
  \  sub rcx, 1\n\
  \  cmp rcx, 0\n\
  \  jne loop\n\
  \  hlt\n"

let mitems_of_asm src =
  List.map
    (fun item ->
      let cls =
        match item with
        | Program.I
            ( Insn.Load _ | Insn.Store _ | Insn.Store_i _ | Insn.Movdqa_load _
            | Insn.Movdqa_store _ ) ->
          Ir.Lower.Data_access
        | _ -> Ir.Lower.Plain
      in
      { Ir.Lower.item; cls; safe = false })
    (Asm.parse src)

let optimize_fixture technique =
  let mitems = mitems_of_asm fixture_asm in
  let kind = Instr.Reads_and_writes in
  let (items, sm), policy =
    match technique with
    | Technique.Sfi ->
      ( Instr.address_based_sites ~check:Instr_sfi.check ~kind ~technique:"SFI" mitems,
        Gate_analysis.Sfi_policy )
    | Technique.Mpx ->
      ( Instr.address_based_sites ~check:Instr_mpx.check ~kind ~technique:"MPX" mitems,
        Gate_analysis.Mpx_policy )
    | Technique.Isboxing ->
      ( Instr.address_based_lea32_sites ~kind ~technique:"ISBoxing" mitems,
        Gate_analysis.Isboxing_policy )
    | _ -> Alcotest.fail "address-based fixture: unexpected technique"
  in
  Gate_opt.optimize ~policy ~kind items sm

let check_fixture_stats technique () =
  let r = optimize_fixture technique in
  let s = r.Gate_opt.stats in
  Alcotest.(check int) "sites" 5 s.Gate_opt.sites_total;
  Alcotest.(check int) "static" 2 s.Gate_opt.eliminated_static;
  Alcotest.(check int) "redundant" 1 s.Gate_opt.eliminated_redundant;
  Alcotest.(check int) "hoisted" 1 s.Gate_opt.hoisted;
  Alcotest.(check int) "preheaders" 1 s.Gate_opt.preheaders;
  Alcotest.(check int) "coalesced" 0 s.Gate_opt.coalesced_pairs;
  Alcotest.(check bool) "shrinks" true (s.Gate_opt.insns_after < s.Gate_opt.insns_before);
  Alcotest.(check int) "re-verifies clean" 0
    (List.length r.Gate_opt.report.Gate_analysis.violations);
  let printed = Asm.print_items r.Gate_opt.items in
  let contains sub =
    let n = String.length sub and m = String.length printed in
    let rec go i = i + n <= m && (String.sub printed i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "preheader label emitted" true (contains "__gopt_ph")

let test_sitemap_survivors () =
  (* The rewritten sitemap must keep exactly the surviving sites, with
     dense ids and rips pointing at tagged instructions. *)
  let r = optimize_fixture Technique.Sfi in
  let sm = r.Gate_opt.sitemap in
  Alcotest.(check int) "surviving sites" 2 (Sitemap.n_sites sm);
  let prog = Program.assemble r.Gate_opt.items in
  let tagged = ref 0 in
  for i = 0 to Program.length prog - 1 do
    if Sitemap.classify sm i <> None then incr tagged
  done;
  Alcotest.(check bool) "tags present" true (!tagged > 0);
  List.iter
    (fun (s : Sitemap.site) ->
      Alcotest.(check bool) "orig_rip in range" true
        (s.Sitemap.orig_rip >= 0 && s.Sitemap.orig_rip < Program.length prog))
    (Sitemap.sites sm)

(* Running the fixture before and after optimization must produce the
   same machine state (the accesses land in mapped low memory). *)
let run_items items =
  let cpu = Cpu.create () in
  Mmu.map_range cpu.Cpu.mmu ~va:0x1000 ~len:0x10000 ~writable:true;
  Mmu.map_range cpu.Cpu.mmu ~va:0x1000_0000 ~len:0x1000 ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:0x2000 0x3000;
  Mmu.poke64 cpu.Cpu.mmu ~va:0x3000 0x1111;
  Mmu.poke64 cpu.Cpu.mmu ~va:0x3008 0x2222;
  Mmu.poke64 cpu.Cpu.mmu ~va:0x1000_0000 0x4444;
  Cpu.load_program cpu (Program.assemble items);
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "fixture run out of fuel");
  (Cpu.get_gpr cpu Reg.rax, Cpu.get_gpr cpu Reg.r8, cpu.Cpu.counters.Cpu.insns)

let test_fixture_execution () =
  let mitems = mitems_of_asm fixture_asm in
  let items, _ =
    Instr.address_based_sites ~check:Instr_sfi.check ~kind:Instr.Reads_and_writes
      ~technique:"SFI" mitems
  in
  let r = optimize_fixture Technique.Sfi in
  let rax0, r8_0, insns0 = run_items items in
  let rax1, r8_1, insns1 = run_items r.Gate_opt.items in
  Alcotest.(check int) "rax agrees" rax0 rax1;
  Alcotest.(check int) "r8 agrees" r8_0 r8_1;
  Alcotest.(check bool) "fewer executed instructions" true (insns1 < insns0)

(* --- gate coalescing (shadow-stack workload) --------------------------- *)

let test_shadow_stack_coalescing () =
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
      Defenses.Shadow_stack.apply ~region_va (Workloads.Synth.lowered ~iterations:2 prof)
    in
    let p = Framework.prepare ~extra_regions:[ region ] ~optimize cfg lowered in
    (match Framework.run p with
    | Cpu.Halted -> ()
    | Cpu.Out_of_fuel -> Alcotest.fail "shadow-stack workload out of fuel");
    p
  in
  let p0 = build false and p1 = build true in
  let coalesced =
    match p1.Framework.plan.Framework.opt_stats with
    | Some s -> s.Gate_opt.coalesced_pairs
    | None -> Alcotest.fail "no opt stats on optimized build"
  in
  Alcotest.(check bool) "pairs coalesced" true (coalesced > 0);
  Alcotest.(check bool) "fewer domain switches" true
    (p1.Framework.cpu.Cpu.counters.Cpu.wrpkrus < p0.Framework.cpu.Cpu.counters.Cpu.wrpkrus);
  (* The merged windows must still verify: no new violation classes. *)
  match Framework.verify p1.Framework.plan with
  | None -> Alcotest.fail "no policy for MPK config"
  | Some r -> Alcotest.(check int) "verifies clean" 0 (List.length r.Gate_analysis.violations)

(* --- cost model -------------------------------------------------------- *)

let test_interval_arithmetic () =
  let open Cost_model in
  Alcotest.(check bool) "exact point" true (is_exact (exactly 3));
  Alcotest.(check bool) "contains" true (contains (exactly 3) 3);
  Alcotest.(check bool) "excludes" false (contains (exactly 3) 4);
  let sum = add (exactly 2) { lo = 1; hi = None } in
  Alcotest.(check int) "add lo" 3 sum.lo;
  Alcotest.(check bool) "add unbounded" true (sum.hi = None);
  let z = mul (exactly 0) { lo = 1; hi = None } in
  Alcotest.(check bool) "0 * unbounded = 0" true (z.lo = 0 && z.hi = Some 0);
  let m = mul { lo = 1; hi = Some 4 } { lo = 2; hi = Some 3 } in
  Alcotest.(check bool) "mul bounds" true (m.lo = 2 && m.hi = Some 12)

let test_cost_model_straight_line () =
  (* Two checks in straight-line code execute exactly once each. *)
  let mitems =
    mitems_of_asm
      "main:\n  mov rbx, 0x10000000\n  mov rax, [rbx]\n  mov rcx, [rbx+8]\n  hlt\n"
  in
  let items, sm =
    Instr.address_based_sites ~check:Instr_sfi.check ~kind:Instr.Reads_and_writes
      ~technique:"SFI" mitems
  in
  let model = Cost_model.predict (Program.assemble items) sm in
  Alcotest.(check bool) "total exact" true (Cost_model.is_exact model.Cost_model.total_checks);
  Alcotest.(check int) "two checks" 2 model.Cost_model.total_checks.Cost_model.lo;
  List.iter
    (fun (sc : Cost_model.site_cost) ->
      Alcotest.(check bool) "each site exact" true (Cost_model.is_exact sc.Cost_model.checks))
    model.Cost_model.per_site

let test_cost_model_vs_profiler () =
  (* Dynamic counts must land inside the predicted intervals on real
     optimized builds, address-based and domain-based alike. *)
  let prof = List.hd Workloads.Spec2006.all in
  List.iter
    (fun cfg ->
      let profiler, _ = Workloads.Runner.profile ~iterations:2 ~optimize:true prof cfg in
      let p = Workloads.Runner.prepare_instrumented ~iterations:2 ~optimize:true prof cfg in
      let plan = p.Framework.plan in
      let model = Cost_model.predict plan.Framework.program plan.Framework.sitemap in
      let v = Cost_model.validate model profiler in
      Alcotest.(check bool) "within bounds" true v.Cost_model.ok;
      Alcotest.(check int) "no violations" 0 v.Cost_model.n_violated)
    [
      Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi;
      Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access);
    ]

(* --- corpus smoke: optimized builds verify clean ----------------------- *)

let test_corpus_optimizes_clean () =
  let profs = [ List.nth Workloads.Spec2006.all 0; List.nth Workloads.Spec2006.all 8 ] in
  List.iter
    (fun cfg ->
      List.iter
        (fun prof ->
          let p = Workloads.Runner.prepare_instrumented ~iterations:2 ~optimize:true prof cfg in
          match Framework.verify p.Framework.plan with
          | None -> ()
          | Some r ->
            Alcotest.(check int)
              (prof.Workloads.Profile.name ^ ": no violations")
              0
              (List.length r.Gate_analysis.violations))
        profs)
    [
      Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi;
      Framework.config ~address_kind:Instr.Reads_and_writes Technique.Mpx;
      Framework.config ~address_kind:Instr.Reads_and_writes Technique.Isboxing;
      Framework.config ~switch_policy:Instr.At_call_ret Technique.Vmfunc;
      Framework.config ~switch_policy:Instr.At_indirect_branches Technique.Crypt;
    ]

(* --- differential properties ------------------------------------------- *)

(* The optimizer must be invisible to program semantics: reuse the
   differential generator and compare optimized machine runs against the
   interpreter reference. *)

let run_machine_opt ~cfg m =
  let lowered = Ir.Lower.lower m in
  let p = Framework.prepare ~optimize:true cfg lowered in
  match Framework.run p with
  | Cpu.Out_of_fuel -> Alcotest.fail "optimized machine run out of fuel"
  | Cpu.Halted ->
    let rax = Cpu.get_gpr p.Framework.cpu Reg.rax in
    let g0 = Mmu.peek64 p.Framework.cpu.Cpu.mmu ~va:(Ir.Lower.global_va lowered "g") in
    (Test_differential.canon rax, Test_differential.canon g0)

let opt_configs =
  [
    Framework.config Technique.Sfi;
    Framework.config Technique.Mpx;
    Framework.config Technique.Isboxing;
    Framework.config (Technique.Mpk Mpk.Pkey.No_access);
    Framework.config ~switch_policy:Instr.At_safe_accesses (Technique.Mpk Mpk.Pkey.No_access);
    Framework.config Technique.Vmfunc;
    Framework.config Technique.Crypt;
  ]

let prop_optimized_preserves_semantics =
  QCheck.Test.make ~name:"optimized builds preserve random-program semantics" ~count:20
    Test_differential.arb_recipe (fun r ->
      let reference = Test_differential.run_interp (Test_differential.build_program r) in
      List.for_all
        (fun cfg -> run_machine_opt ~cfg (Test_differential.build_program r) = reference)
        opt_configs)

let prop_optimized_never_slower =
  QCheck.Test.make ~name:"optimization never adds instructions or switches" ~count:12
    Test_differential.arb_recipe (fun r ->
      List.for_all
        (fun cfg ->
          let run optimize =
            let lowered = Ir.Lower.lower (Test_differential.build_program r) in
            let p = Framework.prepare ~optimize cfg lowered in
            ignore (Framework.run p);
            let c = p.Framework.cpu.Cpu.counters in
            (c.Cpu.insns, c.Cpu.wrpkrus + c.Cpu.vmfuncs)
          in
          let i0, s0 = run false and i1, s1 = run true in
          i1 <= i0 && s1 <= s0)
        opt_configs)

let suite =
  [
    Alcotest.test_case "loops: diamond has none" `Quick test_loops_diamond;
    Alcotest.test_case "loops: self loop" `Quick test_loops_self;
    Alcotest.test_case "loops: nested" `Quick test_loops_nested;
    Alcotest.test_case "loops: irreducible unreported" `Quick test_loops_irreducible;
    Alcotest.test_case "fixture stats: SFI" `Quick (check_fixture_stats Technique.Sfi);
    Alcotest.test_case "fixture stats: MPX" `Quick (check_fixture_stats Technique.Mpx);
    Alcotest.test_case "fixture stats: ISBoxing" `Quick (check_fixture_stats Technique.Isboxing);
    Alcotest.test_case "sitemap rewritten to survivors" `Quick test_sitemap_survivors;
    Alcotest.test_case "fixture execution agrees" `Quick test_fixture_execution;
    Alcotest.test_case "shadow-stack gates coalesce" `Quick test_shadow_stack_coalescing;
    Alcotest.test_case "interval arithmetic" `Quick test_interval_arithmetic;
    Alcotest.test_case "cost model: straight-line exact" `Quick test_cost_model_straight_line;
    Alcotest.test_case "cost model: bounds hold dynamically" `Quick test_cost_model_vs_profiler;
    Alcotest.test_case "corpus optimizes clean" `Quick test_corpus_optimizes_clean;
    QCheck_alcotest.to_alcotest prop_optimized_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_optimized_never_slower;
  ]
