(* The attack suite: information hiding falls to every published technique;
   deterministic isolation does not fall to any of them. *)

open X86sim

let page = Physmem.page_size
let secret = Attacks.Harness.secret_value

let hidden_victim ?(entropy_bits = 12) ~seed () =
  let cpu = Cpu.create () in
  let h = Defenses.Info_hiding.hide cpu ~seed ~entropy_bits ~size:page ~secret () in
  (cpu, h)

(* --- primitives --- *)

let test_primitives_counting () =
  let cpu = Cpu.create () in
  Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:page ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:Layout.heap_base 42;
  let prim = Attacks.Primitives.create cpu in
  Alcotest.(check (option int)) "read mapped" (Some 42)
    (Attacks.Primitives.try_read prim Layout.heap_base);
  Alcotest.(check (option int)) "read unmapped" None
    (Attacks.Primitives.try_read prim 0x9000000);
  Alcotest.(check int) "probes" 2 (Attacks.Primitives.probes prim);
  Alcotest.(check int) "crashes" 1 (Attacks.Primitives.crashes prim)

let test_primitives_sfi_gadget_redirects () =
  let cpu = Cpu.create () in
  let target = Layout.sensitive_base + 0x100000 in
  Mmu.map_range cpu.Cpu.mmu ~va:target ~len:page ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:target secret;
  let alias = target land Layout.sfi_mask in
  Mmu.map_range cpu.Cpu.mmu ~va:alias ~len:page ~writable:true;
  Mmu.poke64 cpu.Cpu.mmu ~va:alias 0xAAAA;
  let prim = Attacks.Primitives.create ~gadget:Attacks.Primitives.Sfi_masked cpu in
  Alcotest.(check (option int)) "read redirected below the split" (Some 0xAAAA)
    (Attacks.Primitives.try_read prim target)

let test_primitives_mpx_gadget_faults () =
  let cpu = Cpu.create () in
  Memsentry.Instr_mpx.setup cpu;
  let target = Layout.sensitive_base + 0x100000 in
  Mmu.map_range cpu.Cpu.mmu ~va:target ~len:page ~writable:true;
  let prim = Attacks.Primitives.create ~gadget:Attacks.Primitives.Mpx_checked cpu in
  Alcotest.(check (option int)) "bound check stops the gadget" None
    (Attacks.Primitives.try_read prim target);
  Alcotest.(check int) "counted as crash" 1 (Attacks.Primitives.crashes prim)

let test_range_oracle () =
  let cpu, h = hidden_victim ~seed:31 () in
  let prim = Attacks.Primitives.create cpu in
  let lo, hi = Defenses.Info_hiding.probe_space h in
  Alcotest.(check bool) "sees the region" true
    (Attacks.Primitives.range_mapped_oracle prim ~lo ~hi);
  Alcotest.(check bool) "empty range" false
    (Attacks.Primitives.range_mapped_oracle prim ~lo:(hi + (1 lsl 30)) ~hi:(hi + (2 lsl 30)))

(* --- the attacks against hiding --- *)

let test_alloc_oracle_finds_region () =
  let cpu, h = hidden_victim ~seed:77 () in
  let prim = Attacks.Primitives.create cpu in
  let lo, hi = Defenses.Info_hiding.probe_space h in
  (match Attacks.Alloc_oracle.locate prim ~lo ~hi with
  | Some va -> Alcotest.(check int) "exact page" h.Defenses.Info_hiding.secret_va va
  | None -> Alcotest.fail "oracle failed");
  (* Logarithmic and crash-free: the paper's point about entropy. *)
  Alcotest.(check bool)
    (Printf.sprintf "few probes (%d)" (Attacks.Primitives.probes prim))
    true
    (Attacks.Primitives.probes prim <= 2 * 12 + 4);
  Alcotest.(check int) "zero crashes" 0 (Attacks.Primitives.crashes prim)

let test_crash_probe_finds_region () =
  let cpu, h = hidden_victim ~seed:78 () in
  let prim = Attacks.Primitives.create cpu in
  let lo, hi = Defenses.Info_hiding.probe_space h in
  (match Attacks.Crash_probe.scan prim ~lo ~hi ~step:page with
  | Some va -> Alcotest.(check int) "found" h.Defenses.Info_hiding.secret_va va
  | None -> Alcotest.fail "probe failed");
  Alcotest.(check bool) "crashes absorbed" true (Attacks.Primitives.crashes prim > 0)

let test_thread_spray_finds_region () =
  let cpu, h = hidden_victim ~seed:79 () in
  let prim = Attacks.Primitives.create cpu in
  let lo, hi = Defenses.Info_hiding.probe_space h in
  match
    Attacks.Thread_spray.spray_and_find prim cpu ~lo ~hi ~spray_pages:((hi - lo) / page / 2)
      ~marker:0xFEE1
  with
  | Some va ->
    Alcotest.(check int) "found" h.Defenses.Info_hiding.secret_va va;
    Alcotest.(check int) "no crashes" 0 (Attacks.Primitives.crashes prim)
  | None -> Alcotest.fail "spray failed"

(* --- the full harness --- *)

let test_harness_hiding_falls_deterministic_stands () =
  let results = Attacks.Harness.run_all ~entropy_bits:10 () in
  let races, rest = List.partition Attacks.Harness.is_race results in
  let hiding, det =
    List.partition (fun r -> String.length r.Attacks.Harness.scenario >= 4
                             && String.sub r.Attacks.Harness.scenario 0 4 = "info") rest
  in
  Alcotest.(check int) "three hiding attacks" 3 (List.length hiding);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Attacks.Harness.attack ^ " leaks under hiding") true
        r.Attacks.Harness.leaked)
    hiding;
  Alcotest.(check int) "seven deterministic scenarios" 7 (List.length det);
  (* The race rows separate gate kinds: per-core PKRU holds, shared page
     table does not. *)
  Alcotest.(check int) "two race scenarios" 2 (List.length races);
  List.iter
    (fun r ->
      let expect_leak =
        String.length r.Attacks.Harness.scenario >= 8
        && String.sub r.Attacks.Harness.scenario 0 8 = "mprotect"
      in
      Alcotest.(check bool)
        (r.Attacks.Harness.scenario ^ " race outcome")
        expect_leak r.Attacks.Harness.leaked)
    races;
  Alcotest.(check bool) "no deterministic leak" false
    (Attacks.Harness.any_deterministic_leak results);
  (* Every non-SGX deterministic scenario found the region (it was never
     hidden) yet got nothing. *)
  List.iter
    (fun r ->
      if r.Attacks.Harness.scenario <> "SGX" then
        Alcotest.(check bool)
          (r.Attacks.Harness.scenario ^ " denied, not lost")
          true
          (r.Attacks.Harness.outcome <> "region not located"))
    det

let test_harness_entropy_does_not_help_oracle () =
  (* Doubling entropy adds ~one probe per bit for the oracle attack. *)
  let probes_at bits =
    let r = Attacks.Harness.run_hiding_attacks ~entropy_bits:bits () in
    let oracle = List.find (fun x -> x.Attacks.Harness.attack = "allocation oracle") r in
    oracle.Attacks.Harness.probes
  in
  let p10 = probes_at 10 and p14 = probes_at 14 in
  Alcotest.(check bool)
    (Printf.sprintf "p10=%d p14=%d" p10 p14)
    true
    (p14 - p10 <= 8 && p14 >= p10)

(* Sweeping security property: for any offset inside the region and any
   deterministic technique, an architectural read never yields the secret
   planted at that offset. *)
let prop_no_secret_escapes =
  QCheck.Test.make ~name:"no technique leaks any region offset" ~count:60
    QCheck.(pair (int_range 0 5) (int_range 0 255))
    (fun (tech_idx, slot) ->
      let offset = 8 * (slot mod 32) in
      let cpu = Cpu.create () in
      let alloc = Memsentry.Safe_region.create_allocator cpu in
      let region = Memsentry.Safe_region.alloc alloc ~size:256 in
      let planted = 0x5EC000 lor slot in
      Mmu.poke64 cpu.Cpu.mmu ~va:(region.Memsentry.Safe_region.va + offset) planted;
      let gadget = ref Attacks.Primitives.Raw in
      (match tech_idx with
      | 0 -> Memsentry.Instr_mpk.setup cpu ~protection:Mpk.Pkey.No_access [ region ]
      | 1 -> ignore (Memsentry.Instr_vmfunc.setup cpu [ region ])
      | 2 -> Memsentry.Instr_crypt.setup cpu ~seed:slot [ region ]
      | 3 -> Memsentry.Instr_mprotect.setup cpu [ region ]
      | 4 ->
        Memsentry.Instr_mpx.setup cpu;
        gadget := Attacks.Primitives.Mpx_checked
      | _ -> gadget := Attacks.Primitives.Isboxing_prefixed);
      let prim = Attacks.Primitives.create ~gadget:!gadget cpu in
      match Attacks.Primitives.try_read prim (region.Memsentry.Safe_region.va + offset) with
      | None -> true
      | Some v -> v <> planted)

let test_report_tables_golden () =
  (* The survey tables are data; lock their content. *)
  let t3 = Memsentry.Report.table3 () in
  let expected_rows =
    [ "SFI"; "MPX"; "MPK"; "VMFUNC"; "crypt"; "SGX"; "16"; "512"; "byte"; "128 bytes" ]
  in
  List.iter
    (fun needle ->
      let n = String.length needle and ls = String.length t3 in
      let rec go i = i + n <= ls && (String.sub t3 i n = needle || go (i + 1)) in
      Alcotest.(check bool) ("table3 contains " ^ needle) true (go 0))
    expected_rows;
  Alcotest.(check int) "table2 has 11 applications" 11
    (List.length Memsentry.Report.applications)

let suite =
  [
    Alcotest.test_case "primitives count probes/crashes" `Quick test_primitives_counting;
    QCheck_alcotest.to_alcotest prop_no_secret_escapes;
    Alcotest.test_case "report tables golden" `Quick test_report_tables_golden;
    Alcotest.test_case "SFI gadget silently redirects" `Quick test_primitives_sfi_gadget_redirects;
    Alcotest.test_case "MPX gadget faults" `Quick test_primitives_mpx_gadget_faults;
    Alcotest.test_case "range oracle" `Quick test_range_oracle;
    Alcotest.test_case "allocation oracle finds hidden region" `Quick
      test_alloc_oracle_finds_region;
    Alcotest.test_case "crash probe finds hidden region" `Quick test_crash_probe_finds_region;
    Alcotest.test_case "thread spray finds hidden region" `Quick test_thread_spray_finds_region;
    Alcotest.test_case "hiding falls, deterministic stands" `Quick
      test_harness_hiding_falls_deterministic_stands;
    Alcotest.test_case "entropy does not help vs oracle" `Quick
      test_harness_entropy_does_not_help_oracle;
  ]
