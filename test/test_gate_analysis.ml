(* The CFG-based gate-soundness analyzer: adversarial programs per policy
   are rejected with named violations, correct gate sequences verify
   clean, lints surface non-fatal findings, and (qcheck) the framework's
   instrumented output verifies clean for every technique on random
   builder modules. *)

open X86sim
open Memsentry

let analyze ~policy src = Gate_analysis.analyze ~policy (Asm.parse_program src)

let has_tag tag (r : Gate_analysis.report) =
  List.exists
    (fun (f : Gate_analysis.finding) ->
      String.length f.reason >= String.length tag
      && String.sub f.reason 0 (String.length tag) = tag)
    r.violations

let check_rejected ~policy ~tag src =
  let r = analyze ~policy src in
  Alcotest.(check bool)
    (Printf.sprintf "%s: violation tagged %s (got: %s)"
       (Gate_analysis.policy_name policy) tag
       (String.concat "; "
          (List.map (fun (f : Gate_analysis.finding) -> f.reason) r.violations)))
    true (has_tag tag r)

let check_clean ~policy src =
  let r = analyze ~policy src in
  Alcotest.(check int)
    (Printf.sprintf "%s: clean (got: %s)" (Gate_analysis.policy_name policy)
       (String.concat "; "
          (List.map (fun (f : Gate_analysis.finding) -> f.reason) r.violations)))
    0
    (List.length r.violations)

(* --- adversarial programs, one per policy ------------------------------ *)

let test_sfi_unmasked_access () =
  (* The pointer comes from memory, so no static range confines it — an
     unmasked dereference must be rejected. *)
  check_rejected ~policy:Gate_analysis.Sfi_policy ~tag:"unverified-access"
    "main:\n  mov rbx, [0x2000]\n  lea rbx, [rbx+8]\n  mov rax, [rbx]\n  hlt\n"

let test_mpx_check_on_wrong_register () =
  check_rejected ~policy:Gate_analysis.Mpx_policy ~tag:"unverified-access"
    "main:\n\
    \  mov rbx, [0x2000]\n\
    \  lea rbx, [rbx+8]\n\
    \  mov rcx, 0x1000\n\
    \  bndcu rcx, bnd0\n\
    \  mov rax, [rbx]\n\
    \  hlt\n"

let test_isboxing_plain_lea_not_confining () =
  (* Only lea32 truncates; a plain lea over an unknown register must not
     count as a check. *)
  check_rejected ~policy:Gate_analysis.Isboxing_policy ~tag:"unverified-access"
    "main:\n  mov rbx, [0x2000]\n  lea rbx, [rbx+8]\n  mov rax, [rbx]\n  hlt\n"

let mpk = Gate_analysis.Mpk_policy Mpk.Pkey.No_access

let test_mpk_open_gate_at_ret () =
  check_rejected ~policy:mpk ~tag:"open-gate-at-ret"
    "main:\n  mov rax, 0\n  mov rcx, 0\n  mov rdx, 0\n  wrpkru\n  ret\n"

let test_mpk_double_open () =
  check_rejected ~policy:mpk ~tag:"double-open"
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 0\n\
    \  mov rdx, 0\n\
    \  wrpkru\n\
    \  mov rax, 0\n\
    \  wrpkru\n\
    \  hlt\n"

let test_mpk_unproven_wrpkru () =
  (* rdpkru destroys the static knowledge of eax: the gate transition is
     unprovable and must be reported (ERIM's "every wrpkru occurrence must
     be statically safe"). *)
  check_rejected ~policy:mpk ~tag:"unproven-wrpkru"
    "main:\n  rdpkru\n  mov rcx, 0\n  mov rdx, 0\n  wrpkru\n  hlt\n"

let test_mpk_bad_wrpkru_operands () =
  check_rejected ~policy:mpk ~tag:"unproven-wrpkru"
    "main:\n  mov rax, 4\n  mov rcx, [0x2000]\n  mov rdx, 0\n  wrpkru\n  hlt\n"

let test_mpk_closed_gate_access () =
  check_rejected ~policy:mpk ~tag:"closed-gate-access"
    "main:\n  mov rbx, 0x400000000000\n  mov rax, [rbx]\n  hlt\n"

let test_vmfunc_open_across_call () =
  check_rejected ~policy:Gate_analysis.Vmfunc_policy ~tag:"open-gate-at-call"
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 1\n\
    \  vmfunc\n\
    \  call f\n\
    \  hlt\n\
     f:\n\
    \  ret\n"

let test_vmfunc_unproven_index () =
  check_rejected ~policy:Gate_analysis.Vmfunc_policy ~tag:"unproven-vmfunc"
    "main:\n  mov rax, 0\n  mov rcx, [0x2000]\n  vmfunc\n  hlt\n"

let test_crypt_open_gate_at_ret () =
  check_rejected ~policy:Gate_analysis.Crypt_policy ~tag:"open-gate-at-ret"
    "main:\n  aesdeclast xmm0, xmm1\n  ret\n"

let test_crypt_closed_gate_access () =
  check_rejected ~policy:Gate_analysis.Crypt_policy ~tag:"closed-gate-access"
    "main:\n  mov rbx, 0x400000000000\n  mov rax, [rbx]\n  hlt\n"

(* --- hand-written correct gate sequences verify clean ------------------ *)

let test_mpk_gated_access_clean () =
  (* open (pkru=0), access the safe region, close (AD for key 1 = 4). *)
  check_clean ~policy:mpk
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 0\n\
    \  mov rdx, 0\n\
    \  wrpkru\n\
    \  mov rbx, 0x400000000000\n\
    \  mov r8, [rbx]\n\
    \  mov rax, 4\n\
    \  mov rcx, 0\n\
    \  mov rdx, 0\n\
    \  wrpkru\n\
    \  ret\n"

let test_vmfunc_gated_access_clean () =
  check_clean ~policy:Gate_analysis.Vmfunc_policy
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 1\n\
    \  vmfunc\n\
    \  mov rbx, 0x400000000000\n\
    \  mov r8, [rbx]\n\
    \  mov rax, 0\n\
    \  mov rcx, 0\n\
    \  vmfunc\n\
    \  ret\n"

let test_crypt_gated_access_clean () =
  check_clean ~policy:Gate_analysis.Crypt_policy
    "main:\n\
    \  aesdeclast xmm0, xmm1\n\
    \  mov rbx, 0x400000000000\n\
    \  mov r8, [rbx]\n\
    \  aesenclast xmm0, xmm1\n\
    \  ret\n"

let test_gate_integrity_is_path_sensitive () =
  (* The gate is closed on one path but left open on the other: the join
     at the ret must catch it. *)
  check_rejected ~policy:mpk ~tag:"open-gate-at-ret"
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 0\n\
    \  mov rdx, 0\n\
    \  wrpkru\n\
    \  cmp rbx, 0\n\
    \  je out\n\
    \  mov rax, 4\n\
    \  mov rcx, 0\n\
    \  mov rdx, 0\n\
    \  wrpkru\n\
     out:\n\
    \  ret\n"

(* --- lints ------------------------------------------------------------- *)

let test_unreachable_code_lint () =
  let r =
    analyze ~policy:Gate_analysis.Sfi_policy
      "main:\n  jmp over\ndead:\n  mov rax, [rbx]\n  ret\nover:\n  hlt\n"
  in
  Alcotest.(check int) "no violations (dead code is not executed)" 0
    (List.length r.violations);
  Alcotest.(check bool) "unreachable block linted" true
    (List.exists
       (fun (f : Gate_analysis.finding) ->
         String.length f.reason >= 16 && String.sub f.reason 0 16 = "unreachable-code")
       r.lints)

let test_gate_across_back_edge_lint () =
  let r =
    analyze ~policy:mpk
      "main:\n\
      \  mov rax, 0\n\
      \  mov rcx, 0\n\
      \  mov rdx, 0\n\
      \  wrpkru\n\
      \  mov rbx, 4\n\
       loop:\n\
      \  sub rbx, 1\n\
      \  cmp rbx, 0\n\
      \  jne loop\n\
      \  mov rax, 4\n\
      \  mov rcx, 0\n\
      \  mov rdx, 0\n\
      \  wrpkru\n\
      \  hlt\n"
  in
  Alcotest.(check int) "no violations (no transfer escapes the gate)" 0
    (List.length r.violations);
  Alcotest.(check bool) "open gate across the back edge linted" true
    (List.exists
       (fun (f : Gate_analysis.finding) ->
         String.length f.reason >= 21 && String.sub f.reason 0 21 = "gate-across-back-edge")
       r.lints)

let test_stats_populated () =
  let r =
    analyze ~policy:mpk
      "main:\n\
      \  mov rax, 0\n\
      \  mov rcx, 0\n\
      \  mov rdx, 0\n\
      \  wrpkru\n\
      \  mov rbx, 0x400000000000\n\
      \  mov r8, [rbx]\n\
      \  mov rax, 4\n\
      \  mov rcx, 0\n\
      \  mov rdx, 0\n\
      \  wrpkru\n\
      \  ret\n"
  in
  let s = r.Gate_analysis.stats in
  Alcotest.(check int) "gates proven" 2 s.Gate_analysis.proven_gates;
  Alcotest.(check int) "accesses checked" 1 s.Gate_analysis.checked_accesses;
  Alcotest.(check int) "transfers guarded" 1 s.Gate_analysis.guarded_transfers;
  Alcotest.(check bool) "all blocks reachable" true
    (s.Gate_analysis.blocks = s.Gate_analysis.reachable_blocks)

let test_lint_module_annotations () =
  let b = Ir.Builder.create () in
  Ir.Builder.add_global b ~name:"g" ~size:64 ();
  Ir.Builder.add_global b ~name:"sens" ~size:32 ~sensitive:true ();
  Ir.Builder.start_func b ~name:"main" ~nparams:0;
  let s = Ir.Builder.emit_addr_of_global b "sens" in
  let g = Ir.Builder.emit_addr_of_global b "g" in
  (* Sensitive store with no safe_access annotation: must be linted. *)
  Ir.Builder.emit_store b ~base:(Ir.Ir_types.Var s) ~offset:0 ~src:(Ir.Ir_types.Const 1);
  (* Non-sensitive load carrying a useless annotation: must be linted. *)
  let _ = Ir.Builder.emit_load b ~base:(Ir.Ir_types.Var g) ~offset:0 in
  let wasted = Ir.Builder.last_id b in
  Ir.Builder.emit_ret b None;
  let m = Ir.Builder.finish b in
  Ir.Ir_types.mark_safe_access m wasted;
  let tags =
    List.map
      (fun (f : Gate_analysis.finding) ->
        String.sub f.reason 0 (String.index f.reason ':'))
      (Gate_analysis.lint_module m)
  in
  Alcotest.(check (list string)) "both annotation lints fire"
    [ "unannotated-sensitive-access"; "redundant-annotation" ]
    tags

(* --- the framework's own output verifies clean (qcheck) ---------------- *)

let all_verifiable_techniques =
  [
    Framework.config Technique.Sfi;
    Framework.config Technique.Mpx;
    Framework.config Technique.Isboxing;
    Framework.config (Technique.Mpk Mpk.Pkey.No_access);
    Framework.config (Technique.Mpk Mpk.Pkey.Read_only);
    Framework.config Technique.Vmfunc;
    Framework.config Technique.Crypt;
  ]

let prop_framework_output_verifies =
  QCheck.Test.make ~name:"instrumented output verifies clean for every technique" ~count:20
    Test_differential.arb_recipe (fun r ->
      List.for_all
        (fun cfg ->
          let lowered = Ir.Lower.lower (Test_differential.build_program ~sensitive:false r) in
          match Framework.verify (Framework.instrument cfg lowered) with
          | None -> false
          | Some report -> report.Gate_analysis.violations = [])
        all_verifiable_techniques)

let prop_audit_surface_is_safe_accesses =
  (* With annotated safe-region accesses present, domain-based techniques
     gate them (still clean) while address-based techniques surface exactly
     those accesses as the audit list. *)
  QCheck.Test.make ~name:"safe accesses gate clean (domain) / surface as audit (address)"
    ~count:15 Test_differential.arb_recipe (fun r ->
      List.for_all
        (fun cfg ->
          let lowered = Ir.Lower.lower (Test_differential.build_program r) in
          match Framework.verify (Framework.instrument cfg lowered) with
          | None -> false
          | Some report -> (
            match cfg.Framework.technique with
            | Technique.Mpk _ | Technique.Vmfunc | Technique.Crypt ->
              report.Gate_analysis.violations = []
            | _ ->
              report.Gate_analysis.violations <> []
              && List.for_all
                   (fun (f : Gate_analysis.finding) ->
                     String.sub f.reason 0 17 = "unverified-access")
                   report.Gate_analysis.violations))
        all_verifiable_techniques)

(* Domain-based policies never read the access kind, so Framework,
   Gate_opt and the CLI pass the config's [address_kind] through
   unnormalized: over the SPEC corpus, each domain-based build reports
   the same under every kind. The SPEC builds touch no safe region, so
   each profile is also checked with a shadow stack left ungated, whose
   pushes and pops are closed-gate stores and loads. *)
let test_domain_policies_ignore_kind () =
  let cfgs =
    List.map
      (Framework.config ~switch_policy:Instr.At_call_ret)
      [ Technique.Mpk Mpk.Pkey.No_access; Technique.Vmfunc; Technique.Crypt ]
  in
  let region_va = Layout.sensitive_base + 0x1000_0000 in
  let gates = ref 0 and violations = ref 0 in
  let same_under_every_kind what policy prog =
    let at kind = Gate_analysis.analyze ~kind ~policy prog in
    let rw = at Instr.Reads_and_writes in
    gates := !gates + rw.Gate_analysis.stats.Gate_analysis.proven_gates;
    violations := !violations + List.length rw.Gate_analysis.violations;
    List.iter
      (fun (name, kind) ->
        if at kind <> rw then
          Alcotest.failf "%s: ~kind:%s reports differently from Reads_and_writes" what name)
      [ ("Reads", Instr.Reads); ("Writes", Instr.Writes) ]
  in
  List.iter
    (fun prof ->
      let lowered = Workloads.Synth.lowered ~iterations:2 prof in
      let ungated = Ir.Lower.assemble (Defenses.Shadow_stack.apply ~region_va lowered) in
      List.iter
        (fun cfg ->
          let what =
            Technique.name cfg.Framework.technique ^ " on " ^ prof.Workloads.Profile.name
          in
          let policy = Option.get (Framework.policy_of_config cfg) in
          same_under_every_kind what policy (Framework.instrument cfg lowered).Framework.program;
          same_under_every_kind (what ^ " (ungated shadow stack)") policy ungated)
        cfgs)
    Workloads.Spec2006.all;
  Alcotest.(check bool) "gates were analyzed" true (!gates > 0);
  Alcotest.(check bool) "violations were analyzed" true (!violations > 0)

let suite =
  [
    Alcotest.test_case "SFI: unmasked access rejected" `Quick test_sfi_unmasked_access;
    Alcotest.test_case "MPX: check on wrong register rejected" `Quick
      test_mpx_check_on_wrong_register;
    Alcotest.test_case "ISBoxing: plain lea rejected" `Quick test_isboxing_plain_lea_not_confining;
    Alcotest.test_case "MPK: open gate at ret rejected" `Quick test_mpk_open_gate_at_ret;
    Alcotest.test_case "MPK: double open rejected" `Quick test_mpk_double_open;
    Alcotest.test_case "MPK: unproven wrpkru rejected" `Quick test_mpk_unproven_wrpkru;
    Alcotest.test_case "MPK: bad wrpkru operands rejected" `Quick test_mpk_bad_wrpkru_operands;
    Alcotest.test_case "MPK: closed-gate access rejected" `Quick test_mpk_closed_gate_access;
    Alcotest.test_case "VMFUNC: secret EPT across call rejected" `Quick
      test_vmfunc_open_across_call;
    Alcotest.test_case "VMFUNC: unproven EPT index rejected" `Quick test_vmfunc_unproven_index;
    Alcotest.test_case "crypt: open gate at ret rejected" `Quick test_crypt_open_gate_at_ret;
    Alcotest.test_case "crypt: closed-gate access rejected" `Quick test_crypt_closed_gate_access;
    Alcotest.test_case "MPK: gated access clean" `Quick test_mpk_gated_access_clean;
    Alcotest.test_case "VMFUNC: gated access clean" `Quick test_vmfunc_gated_access_clean;
    Alcotest.test_case "crypt: gated access clean" `Quick test_crypt_gated_access_clean;
    Alcotest.test_case "gate integrity is path-sensitive" `Quick
      test_gate_integrity_is_path_sensitive;
    Alcotest.test_case "unreachable code lint" `Quick test_unreachable_code_lint;
    Alcotest.test_case "gate across back edge lint" `Quick test_gate_across_back_edge_lint;
    Alcotest.test_case "report statistics" `Quick test_stats_populated;
    Alcotest.test_case "IR annotation lints" `Quick test_lint_module_annotations;
    QCheck_alcotest.to_alcotest prop_framework_output_verifies;
    QCheck_alcotest.to_alcotest prop_audit_surface_is_safe_accesses;
    Alcotest.test_case "domain policies ignore the access kind" `Quick
      test_domain_policies_ignore_kind;
  ]
