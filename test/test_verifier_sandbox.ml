(* The NaCl-style sandbox verifier: instrumented programs verify clean,
   uninstrumented or tampered ones are rejected, and a defense's own
   safe-region accesses surface as the audit list. *)

open X86sim
open Memsentry

(* The unverified accesses of [prog] under [policy]. *)
let violations ?kind ?bnd0_upper ~policy prog =
  (Gate_analysis.analyze ?kind ?bnd0_upper ~policy prog).Gate_analysis.violations

let workload () = Workloads.Synth.lowered ~iterations:3 (Workloads.Spec2006.find "gcc")

let instrumented ~policy lowered =
  let kind = Instr.Reads_and_writes in
  match policy with
  | Gate_analysis.Sfi_policy ->
    Instr.address_based ~check:Instr_sfi.check ~kind lowered.Ir.Lower.mitems
  | Gate_analysis.Mpx_policy ->
    Instr.address_based ~check:Instr_mpx.check ~kind lowered.Ir.Lower.mitems
  | Gate_analysis.Isboxing_policy -> Instr.address_based_lea32 ~kind lowered.Ir.Lower.mitems
  | _ -> invalid_arg "address-based policies only"

let test_instrumented_programs_verify () =
  List.iter
    (fun policy ->
      let prog = Program.assemble (instrumented ~policy (workload ())) in
      match violations ~policy prog with
      | [] -> ()
      | v :: _ as vs ->
        Alcotest.fail
          (Printf.sprintf "expected clean, got %d violations; first: %s" (List.length vs)
             v.Gate_analysis.insn))
    [ Gate_analysis.Sfi_policy; Gate_analysis.Mpx_policy; Gate_analysis.Isboxing_policy ]

let test_uninstrumented_program_rejected () =
  let lowered = workload () in
  let prog = Program.assemble (Instr.strip lowered.Ir.Lower.mitems) in
  let vs = violations ~policy:Gate_analysis.Sfi_policy prog in
  Alcotest.(check bool) "many violations" true (List.length vs > 50)

let test_tampered_instrumentation_rejected () =
  (* Drop exactly one load-bearing check from an otherwise fully
     instrumented program: the verifier must find the hole. Checks whose
     pointer the interval domain confines statically (constant-derived
     heap pointers) are genuinely redundant — removing one of those is not
     a hole — so scan for the first check whose removal matters. *)
  let items = instrumented ~policy:Gate_analysis.Mpx_policy (workload ()) in
  let n_checks =
    List.length (List.filter (function Program.I (Insn.Bndcu _) -> true | _ -> false) items)
  in
  Alcotest.(check bool) "program has checks" true (n_checks > 0);
  let drop_nth k =
    let seen = ref 0 in
    List.filter
      (function
        | Program.I (Insn.Bndcu _) ->
          let keep = !seen <> k in
          incr seen;
          keep
        | _ -> true)
      items
  in
  let rec find k =
    if k >= n_checks then None
    else
      let vs = violations ~policy:Gate_analysis.Mpx_policy (Program.assemble (drop_nth k)) in
      match List.length vs with 0 -> find (k + 1) | c -> Some c
  in
  match find 0 with
  | None -> Alcotest.fail "no load-bearing check found: every removal went unnoticed"
  | Some c -> Alcotest.(check int) "exactly the hole is reported" 1 c

let test_mpx_requires_sound_bound () =
  let prog = Program.assemble (instrumented ~policy:Gate_analysis.Mpx_policy (workload ())) in
  Alcotest.(check bool) "unsound bnd0 rejected" true
    (try
       ignore
         (violations ~policy:Gate_analysis.Mpx_policy ~bnd0_upper:(Layout.sensitive_base + 4096)
            prog);
       false
     with Invalid_argument _ -> true)

let test_shadow_stack_audit_surface () =
  (* A shadow-stack-protected program instrumented for writes: the only
     unverified writes must be the shadow-stack's own region accesses. *)
  let region_va = Layout.sensitive_base + 0x1000_0000 in
  let lowered =
    Defenses.Shadow_stack.apply ~region_va
      (Workloads.Synth.lowered ~iterations:2 (Workloads.Spec2006.find "sjeng"))
  in
  let items =
    Instr.address_based ~check:Instr_sfi.check ~kind:Instr.Writes lowered.Ir.Lower.mitems
  in
  let prog = Program.assemble items in
  match violations ~kind:Instr.Writes ~policy:Gate_analysis.Sfi_policy prog with
  | [] -> Alcotest.fail "expected the shadow accesses to be reported"
  | vs ->
    (* Every reported write must mention the shadow region's address or go
       through the shadow-stack pointer register (r13). *)
    List.iter
      (fun v ->
        let s = v.Gate_analysis.insn in
        let mentions sub =
          let n = String.length sub and ls = String.length s in
          let rec go i = i + n <= ls && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "audit entry is a shadow access: %s" s)
          true
          (mentions "r13" || mentions (Printf.sprintf "%#x" region_va)))
      vs

let test_cross_block_check_covers () =
  (* Regression for the old linear verifier's label reset: a check in one
     block covers the access in the next when every path to the label goes
     through it — the CFG engine joins facts across the edge instead of
     dropping them. *)
  let src =
    "main:\n\
    \  mov rbx, 0x10000000\n\
    \  lea r12, [rbx+8]\n\
    \  mov r13, 0x3fffffffffff\n\
    \  and r12, r13\n\
     spot:\n\
    \  mov rax, [r12]\n\
    \  hlt\n"
  in
  let prog = Asm.parse_program src in
  Alcotest.(check int) "dominating check covers the next block" 0
    (List.length (violations ~policy:Gate_analysis.Sfi_policy prog))

let test_join_rejects_unchecked_path () =
  (* The same label reached from a second path that skips the check: the
     join must drop the fact and the access must be reported. *)
  let src =
    "main:\n\
    \  mov rbx, [0x2000]\n\
    \  lea r12, [rbx+8]\n\
    \  cmp rbx, 0\n\
    \  je spot\n\
    \  mov r13, 0x3fffffffffff\n\
    \  and r12, r13\n\
     spot:\n\
    \  mov rax, [r12]\n\
    \  hlt\n"
  in
  let prog = Asm.parse_program src in
  Alcotest.(check int) "one unchecked path poisons the join" 1
    (List.length (violations ~policy:Gate_analysis.Sfi_policy prog))

let test_check_covers_loop_body () =
  (* A mask hoisted above a loop covers the access inside it: the back
     edge re-joins the same state, so the fixpoint keeps the fact. *)
  let src =
    "main:\n\
    \  mov rbx, 0x10000000\n\
    \  mov r13, 0x3fffffffffff\n\
    \  and rbx, r13\n\
    \  mov rcx, 4\n\
     loop:\n\
    \  mov rax, [rbx]\n\
    \  sub rcx, 1\n\
    \  cmp rcx, 0\n\
    \  jne loop\n\
    \  hlt\n"
  in
  let prog = Asm.parse_program src in
  Alcotest.(check int) "hoisted check covers the loop body" 0
    (List.length (violations ~policy:Gate_analysis.Sfi_policy prog))

let test_constant_pointers_accepted () =
  let src = "main:\n  mov rbx, 0x10000000\n  mov rax, [rbx]\n  mov [0x2000], rax\n  hlt\n" in
  let prog = Asm.parse_program src in
  Alcotest.(check int) "constants below the split are fine" 0
    (List.length (violations ~policy:Gate_analysis.Sfi_policy prog))

let suite =
  [
    Alcotest.test_case "instrumented programs verify clean" `Quick
      test_instrumented_programs_verify;
    Alcotest.test_case "uninstrumented rejected" `Quick test_uninstrumented_program_rejected;
    Alcotest.test_case "tampered instrumentation rejected" `Quick
      test_tampered_instrumentation_rejected;
    Alcotest.test_case "MPX bound soundness enforced" `Quick test_mpx_requires_sound_bound;
    Alcotest.test_case "shadow stack audit surface" `Quick test_shadow_stack_audit_surface;
    Alcotest.test_case "dominating check covers next block" `Quick test_cross_block_check_covers;
    Alcotest.test_case "unchecked path poisons the join" `Quick test_join_rejects_unchecked_path;
    Alcotest.test_case "hoisted check covers loop body" `Quick test_check_covers_loop_body;
    Alcotest.test_case "constant pointers accepted" `Quick test_constant_pointers_accepted;
  ]
