(* The telemetry subsystem: residency histogram, JSON round-trips, typed
   events, span matching, and gate-site attributed profiling end to end. *)

open X86sim
open Memsentry
module J = Ms_util.Json
module M = Ms_util.Metrics

(* --- residency histogram --- *)

let test_histogram_empty () =
  let h = M.create () in
  Alcotest.(check int) "no samples" 0 (M.count h);
  Alcotest.(check (float 0.0)) "empty p50 is 0" 0.0 (M.p50 h);
  Alcotest.(check (float 0.0)) "empty p99 is 0" 0.0 (M.p99 h);
  Alcotest.(check (float 0.0)) "empty mean is 0" 0.0 (M.mean h)

let test_histogram_percentiles () =
  let h = M.create () in
  (* 1..1000: the sketch must place percentiles within its ~4.5% bucket
     relative error. *)
  for v = 1 to 1000 do
    M.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (M.count h);
  let within p expected =
    let v = M.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%.1f within 5%% of %.0f" p v expected)
      true
      (Float.abs (v -. expected) /. expected < 0.05)
  in
  within 50.0 500.0;
  within 95.0 950.0;
  within 99.0 990.0;
  Alcotest.(check bool) "p0 is the floor" true (M.percentile h 0.0 <= M.percentile h 50.0);
  Alcotest.(check bool) "p100 is the ceiling" true (M.percentile h 100.0 >= 950.0);
  Alcotest.(check bool) "out-of-range percentile raises" true
    (try ignore (M.percentile h 101.0); false with Invalid_argument _ -> true)

let test_histogram_zero_bucket () =
  let h = M.create () in
  M.observe h 0.0;
  M.observe h (-5.0);
  M.observe h Float.nan;
  Alcotest.(check int) "all land in the zeros bucket" 3 (M.count h);
  Alcotest.(check (float 0.0)) "p99 of zeros is 0" 0.0 (M.p99 h);
  M.observe h 100.0;
  Alcotest.(check bool) "p99 escapes the zeros bucket" true (M.p99 h > 90.0)

(* --- JSON parser --- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "a\"b\\c\n\t\x01é");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("whole", J.Float 3.0);
        ("z", J.Null);
        ("b", J.Bool true);
        ("l", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "compact round-trips" true (J.equal v (J.of_string (J.to_string v)));
  Alcotest.(check bool) "pretty round-trips" true
    (J.equal v (J.of_string (J.to_string ~pretty:true v)));
  Alcotest.(check bool) "whole float stays a float" true
    (match J.of_string (J.to_string (J.Float 3.0)) with J.Float _ -> true | _ -> false);
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (J.of_string "{\"a\": }"); false with J.Parse_error _ -> true);
  Alcotest.(check bool) "trailing junk rejected" true
    (try ignore (J.of_string "1 2"); false with J.Parse_error _ -> true)

(* --- typed events and span matching --- *)

let test_gate_events_from_wrpkru () =
  let cpu = Cpu.create () in
  let items =
    (Program.Label "main"
     :: List.map (fun x -> Program.I x)
          (Mpk.Pkey.open_seq @ Mpk.Pkey.close_seq ~key:1 ~protection:Mpk.Pkey.No_access))
    @ [ Program.I Insn.Halt ]
  in
  Cpu.load_program cpu (Program.assemble items);
  let events = ref [] in
  let id = Cpu.add_event_hook cpu (fun e -> events := e :: !events) in
  ignore (Cpu.run cpu);
  Cpu.remove_event_hook cpu id;
  let gates =
    List.filter_map
      (function
        | Event.Gate_enter _ -> Some `Enter | Event.Gate_exit _ -> Some `Exit | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check bool) "open then close" true (gates = [ `Enter; `Exit ])

let test_event_hook_removal () =
  let cpu = Cpu.create () in
  Alcotest.(check bool) "no hooks initially" false (Cpu.has_event_hooks cpu);
  let seen = ref 0 in
  let id = Cpu.add_event_hook cpu (fun _ -> incr seen) in
  Cpu.emit cpu (Event.Vm_exit { rip = 0; reason = "test" });
  Cpu.remove_event_hook cpu id;
  Cpu.emit cpu (Event.Vm_exit { rip = 1; reason = "test" });
  Alcotest.(check int) "only the subscribed emit seen" 1 !seen

let gate = Event.Seq "test"

let test_spans_nested () =
  let cpu = Cpu.create () in
  let rec_ = Tracer.record_spans cpu in
  Cpu.emit cpu (Event.Gate_enter { rip = 1; gate });
  Cpu.emit cpu (Event.Gate_enter { rip = 2; gate });
  Cpu.emit cpu (Event.Gate_exit { rip = 3; gate });
  Cpu.emit cpu (Event.Gate_exit { rip = 4; gate });
  Tracer.stop rec_;
  match Tracer.spans rec_ with
  | [ inner; outer ] ->
    Alcotest.(check int) "inner enter" 2 inner.Tracer.enter_rip;
    Alcotest.(check int) "inner depth" 1 inner.Tracer.depth;
    Alcotest.(check bool) "inner closed" true inner.Tracer.closed;
    Alcotest.(check int) "outer enter" 1 outer.Tracer.enter_rip;
    Alcotest.(check int) "outer exit" 4 outer.Tracer.exit_rip;
    Alcotest.(check int) "outer depth" 0 outer.Tracer.depth;
    Alcotest.(check int) "nothing unmatched" 0 (Tracer.unmatched_exits rec_)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_spans_unbalanced () =
  let cpu = Cpu.create () in
  let rec_ = Tracer.record_spans cpu in
  Cpu.emit cpu (Event.Gate_exit { rip = 1; gate });
  Cpu.emit cpu (Event.Gate_enter { rip = 2; gate });
  Alcotest.(check int) "one dangling enter" 1 (Tracer.open_spans rec_);
  Tracer.stop rec_;
  Alcotest.(check int) "stray exit counted" 1 (Tracer.unmatched_exits rec_);
  (match Tracer.spans rec_ with
  | [ s ] -> Alcotest.(check bool) "force-closed span marked" false s.Tracer.closed
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  Alcotest.(check int) "stop closed everything" 0 (Tracer.open_spans rec_);
  Tracer.stop rec_ (* idempotent *)

(* --- perf report --- *)

let test_perf_report_safe_rates () =
  (* A machine that never ran: every denominator is zero, and every rate
     must be 1.0 (a level with no traffic served all of it), never nan. *)
  let r = Perf_report.capture (Cpu.create ()) in
  Alcotest.(check (float 0.0)) "l1 rate" 1.0 r.Perf_report.l1_hit_rate;
  Alcotest.(check (float 0.0)) "l2 rate" 1.0 r.Perf_report.l2_hit_rate;
  Alcotest.(check (float 0.0)) "l3 rate" 1.0 r.Perf_report.l3_hit_rate;
  Alcotest.(check (float 0.0)) "tlb rate" 1.0 r.Perf_report.tlb_hit_rate;
  let j = Perf_report.to_json r in
  Alcotest.(check bool) "json round-trips" true
    (J.equal j (J.of_string (J.to_string j)))

(* --- end-to-end: MPK profile --- *)

let mpk_profiled () =
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg =
    Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access)
  in
  let lowered = Workloads.Synth.lowered ~iterations:3 prof in
  let p = Framework.prepare cfg lowered in
  let profiler = Profiler.attach p in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "did not halt");
  Profiler.stop profiler;
  (p, profiler)

let test_mpk_crossings_equal_wrpkrus () =
  let p, profiler = mpk_profiled () in
  let wrpkrus = p.Framework.cpu.Cpu.counters.Cpu.wrpkrus in
  Alcotest.(check bool) "workload switches domains" true (wrpkrus > 0);
  (* Every crossing executes exactly one wrpkru: the attribution must
     account for each of them, none double counted, none missed. *)
  Alcotest.(check int) "total crossings = wrpkrus" wrpkrus
    (Profiler.total_crossings profiler);
  Alcotest.(check int) "each open+close pair is one span" (wrpkrus / 2)
    (List.length (Profiler.spans profiler));
  Alcotest.(check int) "no stray exits" 0 (Profiler.unmatched_exits profiler);
  Alcotest.(check int) "no checks for a domain-based technique" 0
    (Profiler.total_checks profiler);
  Alcotest.(check bool) "gates cost cycles" true (Profiler.overhead_cycles profiler > 0.0);
  List.iter
    (fun (r : Profiler.row) ->
      Alcotest.(check bool) "crossings are enter+exit pairs" true (r.Profiler.crossings mod 2 = 0))
    (Profiler.rows profiler)

let test_mpx_checks_counted () =
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg = Framework.config Technique.Mpx in
  let lowered = Workloads.Synth.lowered ~iterations:2 prof in
  let p = Framework.prepare cfg lowered in
  let profiler = Profiler.attach p in
  ignore (Framework.run p);
  Profiler.stop profiler;
  Alcotest.(check bool) "checks executed" true (Profiler.total_checks profiler > 0);
  Alcotest.(check int) "no crossings for address-based" 0
    (Profiler.total_crossings profiler);
  Alcotest.(check int) "no spans for address-based" 0
    (List.length (Profiler.spans profiler))

let test_profile_json_roundtrip () =
  let _, profiler = mpk_profiled () in
  let j = Profiler.to_json profiler in
  (* The golden property behind `profile --json`: what we write, our own
     parser reads back identically. *)
  let reparsed = J.of_string (J.to_string ~pretty:true j) in
  Alcotest.(check bool) "profile JSON round-trips" true (J.equal j reparsed);
  (match J.member "sites" j with
  | Some (J.List sites) ->
    Alcotest.(check bool) "has sites" true (sites <> []);
    List.iter
      (fun s ->
        Alcotest.(check bool) "site rows carry crossings" true
          (J.member "crossings" s <> None))
      sites
  | _ -> Alcotest.fail "profile JSON lacks sites");
  Alcotest.(check bool) "report renders" true
    (String.length (Report.site_table profiler) > 100)

let test_chrome_trace_valid () =
  let _, profiler = mpk_profiled () in
  let trace = J.of_string (J.to_string (Profiler.trace_json profiler)) in
  match J.member "traceEvents" trace with
  | Some (J.List events) ->
    let complete =
      List.filter (fun e -> J.member "ph" e = Some (J.String "X")) events
    in
    Alcotest.(check int) "one X event per span" (List.length (Profiler.spans profiler))
      (List.length complete);
    List.iter
      (fun e ->
        let has k = J.member k e <> None in
        Alcotest.(check bool) "event is well-formed" true
          (has "name" && has "ts" && has "dur" && has "pid" && has "tid");
        match J.member "args" e with
        | Some args ->
          Alcotest.(check bool) "span annotated with site" true (J.member "site" args <> None)
        | None -> Alcotest.fail "X event lacks args")
      complete
  | _ -> Alcotest.fail "no traceEvents array"

let test_crypt_synthetic_spans () =
  (* Crypt has no hardware gate instruction; the profiler's injected Seq
     events must still produce balanced spans. *)
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg = Framework.config ~switch_policy:Instr.At_call_ret Technique.Crypt in
  let p = Workloads.Runner.prepare_instrumented ~iterations:2 prof cfg in
  let profiler = Profiler.attach p in
  ignore (Framework.run p);
  Profiler.stop profiler;
  let crossings = Profiler.total_crossings profiler in
  Alcotest.(check bool) "crossings observed" true (crossings > 0);
  Alcotest.(check int) "balanced spans" (crossings / 2)
    (List.length (Profiler.spans profiler));
  Alcotest.(check int) "no stray exits" 0 (Profiler.unmatched_exits profiler)

(* --- the profiler on the block tier --- *)

(* [Profiler.attach] installs the class map, its callback and an event
   hook, but no step hook, so the run stays on translated blocks. Forced
   back onto [step] by a no-op step hook, the same build must give the
   same profile: every row field (cycles exactly), the app residual, the
   spans and the unmatched exits. *)
let profiled_on ~force_step (p : Framework.prepared) =
  let cpu = p.Framework.cpu in
  let profiler = Profiler.attach p in
  Alcotest.(check int) "attach installs no step hook" 0 cpu.Cpu.n_step_hooks;
  if force_step then ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "profiled run did not halt");
  Profiler.stop profiler;
  (profiler, List.length (Ublock.stats cpu.Cpu.tcache))

let same_profile what (a : Profiler.t) (b : Profiler.t) =
  Alcotest.(check bool) (what ^ ": rows") true (Profiler.rows a = Profiler.rows b);
  Alcotest.(check bool) (what ^ ": app residual") true (Profiler.residual a = Profiler.residual b);
  Alcotest.(check bool) (what ^ ": spans") true (Profiler.spans a = Profiler.spans b);
  Alcotest.(check int) (what ^ ": unmatched exits") (Profiler.unmatched_exits b)
    (Profiler.unmatched_exits a)

let all_techniques =
  [
    Technique.Sfi;
    Technique.Mpx;
    Technique.Mpk Mpk.Pkey.No_access;
    Technique.Mpk Mpk.Pkey.Read_only;
    Technique.Vmfunc;
    Technique.Crypt;
    Technique.Mprotect;
  ]

let test_profiler_block_tier_equals_step () =
  List.iter
    (fun bench ->
      let prof = Workloads.Spec2006.find bench in
      List.iter
        (fun tech ->
          let what = Printf.sprintf "%s under %s" bench (Technique.name tech) in
          let cfg = Framework.config ~switch_policy:Instr.At_call_ret tech in
          let build () = Workloads.Runner.prepare_instrumented ~iterations:3 prof cfg in
          let block, block_blocks = profiled_on ~force_step:false (build ()) in
          let step, step_blocks = profiled_on ~force_step:true (build ()) in
          same_profile what block step;
          Alcotest.(check bool) (what ^ ": profiled run executes blocks") true
            (block_blocks > 0);
          Alcotest.(check int) (what ^ ": forced run interprets") 0 step_blocks;
          Alcotest.(check bool) (what ^ ": something to attribute") true
            (Profiler.total_crossings block + Profiler.total_checks block > 0))
        all_techniques)
    [ "429.mcf"; "456.hmmer"; "453.povray" ]

(* A hand-built "prepared" machine: [items] with the instructions in
   [gate] tagged as site 0's open sequence. *)
let hand_prepared ?(setup = fun _ -> ()) tech ~gate items =
  let machine = Machine.create () in
  let cpu = Machine.cpu machine 0 in
  let program = Program.assemble items in
  Cpu.load_program cpu program;
  setup cpu;
  let sitemap = Sitemap.create () in
  let site = Sitemap.new_site sitemap ~label:"gate" ~technique:(Technique.name tech) ~orig_rip:0 in
  List.iter (fun rip -> Sitemap.tag sitemap ~rip ~site ~role:Sitemap.Gate_open) gate;
  let plan =
    { Framework.cfg = Framework.config tech; regions = []; program; sitemap; opt_stats = None }
  in
  { Framework.machine; cpu; program; hypervisor = None; plan }

(* A fault in the middle of a gate range, skipped by the fault handler:
   execution re-enters the range after the faulting instruction, which is
   no new transition, so the gate still counts one crossing. *)
let test_fault_skip_inside_gate () =
  let i x = Program.I x in
  let items =
    [
      i (Insn.Mov_ri (Reg.rbx, 0x900000));
      i Insn.Nop;
      i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0));
      i Insn.Nop;
      i Insn.Halt;
    ]
  in
  List.iter
    (fun force_step ->
      let what = if force_step then "interpreter" else "block tier" in
      let setup cpu = cpu.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_skip) in
      let p = hand_prepared ~setup Technique.Crypt ~gate:[ 1; 2; 3 ] items in
      let profiler, _ = profiled_on ~force_step p in
      match Profiler.rows profiler with
      | [ r ] ->
        Alcotest.(check int) (what ^ ": one crossing") 1 r.Profiler.crossings;
        Alcotest.(check int) (what ^ ": fault attributed to the gate") 1 r.Profiler.faults;
        Alcotest.(check int) (what ^ ": one injected span") 1
          (List.length (Profiler.spans profiler))
      | _ -> Alcotest.fail "expected one site row")
    [ false; true ]

(* An EPT violation inside a tagged range, fixed by the hypervisor's
   demand fill and retried: the retry re-executes an instruction whose
   class is already current, so the gate counts one crossing. *)
let test_ept_retry_inside_gate () =
  let i x = Program.I x in
  let page = Layout.heap_base + 0x300000 in
  let items =
    [
      i (Insn.Mov_ri (Reg.rbx, page));
      i Insn.Nop;
      i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0));
      i Insn.Nop;
      i Insn.Halt;
    ]
  in
  List.iter
    (fun force_step ->
      let what = if force_step then "interpreter" else "block tier" in
      let setup cpu =
        ignore (Vmx.Sandbox.enter cpu);
        Mmu.map_range cpu.Cpu.mmu ~va:page ~len:4096 ~writable:true
      in
      let p = hand_prepared ~setup Technique.Vmfunc ~gate:[ 1; 2; 3 ] items in
      let profiler, _ = profiled_on ~force_step p in
      Alcotest.(check bool) (what ^ ": the load took an EPT exit") true
        (p.Framework.cpu.Cpu.counters.Cpu.vm_exits > 0);
      Alcotest.(check int) (what ^ ": retried load counted once") 5
        p.Framework.cpu.Cpu.counters.Cpu.insns;
      Alcotest.(check int) (what ^ ": one crossing") 1 (Profiler.total_crossings profiler))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram zero bucket" `Quick test_histogram_zero_bucket;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "wrpkru gate events" `Quick test_gate_events_from_wrpkru;
    Alcotest.test_case "event hook removal" `Quick test_event_hook_removal;
    Alcotest.test_case "nested spans" `Quick test_spans_nested;
    Alcotest.test_case "unbalanced spans" `Quick test_spans_unbalanced;
    Alcotest.test_case "perf report safe rates" `Quick test_perf_report_safe_rates;
    Alcotest.test_case "mpk crossings = wrpkrus" `Quick test_mpk_crossings_equal_wrpkrus;
    Alcotest.test_case "mpx checks counted" `Quick test_mpx_checks_counted;
    Alcotest.test_case "profile json round-trip" `Quick test_profile_json_roundtrip;
    Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
    Alcotest.test_case "crypt synthetic spans" `Quick test_crypt_synthetic_spans;
    Alcotest.test_case "profiler: block tier = interpreter" `Quick
      test_profiler_block_tier_equals_step;
    Alcotest.test_case "profiler: fault skipped inside a gate" `Quick test_fault_skip_inside_gate;
    Alcotest.test_case "profiler: EPT retry inside a gate" `Quick test_ept_retry_inside_gate;
  ]
