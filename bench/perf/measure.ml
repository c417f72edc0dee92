(* One workload, measured: the timed run (end-to-end metrics and every
   correctness check) or the traced run (per-layer metrics from spans,
   counters and replays). *)

open Suite

type result = {
  workload : string;
  traced : bool;
  reps : int;  (** measured repetitions (traced run: traced ones) *)
  attempted : int;
  failed : int;
  problems : string list;  (** one line per distinct failure *)
  metrics : Metric.t list;
      (** what the one-line summary reports: end-to-end (timed run) or
          per-layer (traced run) *)
  extra : Metric.t list;
      (** in the results file but not in the summary line: fail_rate, and
          for timed runs model_drift plus (figures) paper_err and
          job_p95_ms, which [perfbench compare] checks; for traced runs
          the host time of the layers only some workloads call *)
  figures : string;  (** rendered figure tables ("" outside [figures]) *)
}

let sum f xs = Array.fold_left (fun a x -> a +. f x) 0.0 xs
let isum f xs = Array.fold_left (fun a x -> a + f x) 0 xs

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb *. 1024.0 /. 1e6

(* Warm-up, then repetitions until [seconds] of measurement have passed
   (at least [min_reps]). [each k] runs repetition [k]. *)
let repeat ~quick ~seconds ~min_reps each =
  if not quick then ignore (each (-1));
  let t0 = Span.now () in
  let rec go k acc =
    if k >= min_reps && (quick || Span.now () -. t0 >= seconds) then List.rev acc
    else go (k + 1) (each k :: acc)
  in
  go 0 []

(* Per-simulation failure marks and their reasons. *)
type verdicts = { marks : bool array array; mutable why : string list }

let note v msg = if not (List.mem msg v.why) then v.why <- msg :: v.why

let fail v r i msg =
  v.marks.(r).(i) <- true;
  note v msg

(* Checks shared by both runs: faults, verification or Gate_opt problems,
   outcomes that differ between repetitions, and (seed 0) figure
   overheads that differ from the reference. *)
let check_reps v (reps : rep array) ~(reference : reference option) =
  let first = reps.(0).sims in
  Array.iteri
    (fun r rep ->
      Array.iteri
        (fun i s ->
          let l = label s.inst in
          Option.iter (fun e -> fail v r i (l ^ ": " ^ e)) s.error;
          List.iter (fun p -> fail v r i (l ^ ": " ^ p)) s.problems;
          if s.sig_ <> first.(i).sig_ || s.cycles <> first.(i).cycles then
            fail v r i (l ^ ": outcome differs between repetitions"))
        rep.sims;
      match (reference, rep.figs) with
      | Some ref_, Some f ->
        Array.iteri
          (fun i s ->
            if s.inst.fig <> "" then
              let key = (s.inst.fig, s.inst.prof.Workloads.Profile.name, s.inst.build) in
              match (List.assoc_opt key f.overheads, List.assoc_opt key ref_.expected) with
              | Some got, Some want when got = want -> ()
              | got, want ->
                let show = function Some x -> Printf.sprintf "%.17g" x | None -> "missing" in
                fail v r i
                  (Printf.sprintf "%s: overhead %s, expected %s" (label s.inst) (show got)
                     (show want)))
          rep.sims
      | _ -> ())
    reps

let finish ~workload ~traced ~reps v metrics extra figures =
  let attempted = Array.fold_left (fun a row -> a + Array.length row) 0 v.marks in
  let failed = Array.fold_left (fun a row -> a + isum Bool.to_int row) 0 v.marks in
  {
    workload;
    traced;
    reps;
    attempted;
    failed;
    problems = List.rev v.why;
    metrics;
    extra =
      Metric.single "fail_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
      :: extra;
    figures;
  }

let figures_text (reps : rep array) =
  match reps.(Array.length reps - 1).figs with Some f -> f.rendered | None -> ""

(* ------------------------------------------------------------------ *)
(* Timed run                                                           *)
(* ------------------------------------------------------------------ *)

let timed ~workload ~seed ~seconds ~quick ~reference ~check_figures =
  let iterations = if quick then 2 else fst (sizes workload) in
  let insts = instances ~seed ~iterations workload in
  let warm = ref None in
  let reps =
    repeat ~quick ~seconds ~min_reps:(if quick then 1 else 3) (fun k ->
        let r = run_rep ~index:k insts in
        if k < 0 then warm := Some r;
        r)
    |> Array.of_list
  in
  let rss = peak_rss_mb () in
  let checked = Array.append (match !warm with Some w -> [| w |] | None -> [||]) reps in
  let n = List.length insts in
  let v = { marks = Array.make_matrix (Array.length checked) n false; why = [] } in
  check_reps v checked ~reference:(if check_figures then reference else None);
  (* Interpreter oracle, once per distinct build. *)
  let drift = ref 0.0 and total = ref 0.0 in
  let oracles = Hashtbl.create 16 in
  List.iteri
    (fun i inst ->
      let key = build_key inst in
      let err, sig_, cycles =
        match Hashtbl.find_opt oracles key with
        | Some o -> o
        | None ->
          let o = oracle inst in
          Hashtbl.replace oracles key o;
          o
      in
      let s = reps.(0).sims.(i) in
      drift := !drift +. Float.abs (s.cycles -. cycles);
      total := !total +. cycles;
      let bad =
        match err with
        | Some e -> Some ("oracle " ^ e)
        | None ->
          if sig_ <> s.sig_ then
            Some ("differs from the interpreter oracle (run/oracle): " ^ signature_diff s.sig_ sig_)
          else None
      in
      Option.iter
        (fun msg -> Array.iteri (fun r _ -> fail v r i (label inst ^ ": " ^ msg)) checked)
        bad)
    insts;
  let per_rep f = Array.to_list (Array.map f reps) in
  let rep_insns (r : rep) = float_of_int (isum insns r.sims) in
  let metrics =
    [
      Metric.of_samples "sim_mips" "MIPS"
        (per_rep (fun r -> rep_insns r /. sum (fun s -> s.run_s) r.sims /. 1e6));
      Metric.of_samples "wall_s" "s" (per_rep (fun r -> r.wall));
      Metric.of_samples "setup_s" "s" (per_rep (fun r -> sum (fun s -> s.setup_s) r.sims));
      Metric.single "peak_rss_mb" "MB" rss;
      Metric.of_samples "minor_words_per_insn" "words"
        (per_rep (fun r -> r.minor_words /. rep_insns r));
    ]
  in
  (* The figures' tail job latency, per repetition: with 304 jobs, p95 has
     15 beyond it. The other workloads run four to six long jobs of
     different kinds, whose percentiles jump between kinds. *)
  let figures_only =
    match (reference, reps.(0).figs) with
    | Some ref_, Some f ->
      [
        Metric.of_samples "job_p95_ms" "ms"
          (per_rep (fun r ->
               Ms_util.Stats.percentile 95.0
                 (Array.to_list (Array.map (fun s -> 1000.0 *. s.job_s) r.sims))));
        Metric.single "paper_err" "ratio" (paper_err ref_ f);
      ]
    | _ -> []
  in
  let extra =
    Metric.single "model_drift" "ratio" (if !total > 0.0 then !drift /. !total else 0.0)
    :: figures_only
  in
  finish ~workload ~traced:false ~reps:(Array.length reps) v metrics extra (figures_text reps)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

type replays = {
  mutable engine_s : float;  (** fast-path [Framework.run] of the recorded builds *)
  mutable mmu_s : float;
  mutable tlb_s : float;
  mutable cache_s : float;
  mutable pipe_s : float;
  mutable accesses : int;  (** data accesses replayed (PKRU/EPT switches excluded) *)
  mutable issues : int;
  mutable tlb : int array;  (** summed {!Replay.tlb_counts} of the TLB replays *)
  mutable cache : int array;  (** summed {!Replay.cache_counts} of the cache replays *)
  mutable mismatched : string list;  (** layers whose replay missed the run's counts *)
  mutable drift : float;
  mutable oracle_cycles : float;
}

let add a b = Array.mapi (fun i x -> x + b.(i)) a

(* Record one build through the interpreter oracle and replay its streams
   through each layer; every replay starts from a freshly prepared copy,
   and each machine is dropped before the next one is prepared. A replay
   that misses the run's counts, or loses its place in the access stream,
   fails simulation [i] of the first traced repetition. *)
let replay_build tot v i inst =
  let fresh () =
    (* The replays allocate almost nothing on the minor heap, so the
       incremental major GC barely advances while the machines' frames
       become garbage; collect them before building the next one. *)
    Gc.full_major ();
    let _, p, _ = build inst in
    p
  in
  let cpu (p : Memsentry.Framework.prepared) = p.Memsentry.Framework.cpu in
  let mmu p = (cpu p).X86sim.Cpu.mmu in
  let check layer counts want =
    if counts <> want then begin
      tot.mismatched <- layer :: tot.mismatched;
      fail v 0 i (layer ^ " replay differs from the run: " ^ label inst)
    end
  in
  (* The fast-path run whose counts every replay must reproduce. *)
  let run_counts, run_cycles, engine_s =
    let p = fresh () in
    let _, engine_s = run_to_end p in
    (Replay.mem_counts (mmu p), X86sim.Cpu.cycles (cpu p), engine_s)
  in
  let s = { Replay.rips = Replay.vec (); accs = Replay.vec () } in
  let program =
    let q = fresh () in
    ignore (X86sim.Cpu.add_step_hook (cpu q) (Replay.recorder s));
    ignore (Span.with_span "record" (fun () -> run_to_end q));
    tot.drift <- tot.drift +. Float.abs (run_cycles -. X86sim.Cpu.cycles (cpu q));
    tot.oracle_cycles <- tot.oracle_cycles +. X86sim.Cpu.cycles (cpu q);
    q.Memsentry.Framework.program
  in
  let n = s.Replay.accs.Replay.n in
  let lats = Array.make n 0 in
  let mmu_s =
    let m = fresh () in
    let (), dt = Span.timed "replay.mmu" (fun () -> Replay.mmu (mmu m) s lats) in
    check "mmu" (Replay.mem_counts (mmu m)) run_counts;
    dt
  in
  let pas = Array.make n (-1) in
  let tlb_s, cache_s =
    let t = fresh () in
    let (), tlb_s = Span.timed "replay.tlb" (fun () -> Replay.tlb (mmu t) s pas) in
    let c = (mmu t).X86sim.Mmu.cache in
    let (), cache_s = Span.timed "replay.cache" (fun () -> Replay.cache c pas n) in
    let tlb_counts = Replay.tlb_counts (mmu t) and cache_counts = Replay.cache_counts c in
    check "tlb" tlb_counts (Array.sub run_counts 0 3);
    check "cache" cache_counts (Array.sub run_counts 3 4);
    tot.tlb <- add tot.tlb tlb_counts;
    tot.cache <- add tot.cache cache_counts;
    (tlb_s, cache_s)
  in
  let pipe_s, issues, aligned =
    Span.with_span "replay.pipeline" (fun () -> Replay.pipeline program s lats)
  in
  if not aligned then fail v 0 i ("pipeline replay lost its place in the access stream: " ^ label inst);
  tot.engine_s <- tot.engine_s +. engine_s;
  tot.mmu_s <- tot.mmu_s +. mmu_s;
  tot.tlb_s <- tot.tlb_s +. tlb_s;
  tot.cache_s <- tot.cache_s +. cache_s;
  tot.pipe_s <- tot.pipe_s +. pipe_s;
  tot.accesses <- tot.accesses + Array.fold_left (fun a pa -> if pa >= 0 then a + 1 else a) 0 pas;
  tot.issues <- tot.issues + issues

let traced ~workload ~seed ~seconds ~quick ~reference ~check_figures =
  let iterations, rec_iterations = if quick then (2, 2) else sizes workload in
  let insts = instances ~seed ~iterations workload in
  let untraced = ref [] and traced = ref [] and gc = ref [] in
  ignore
    (repeat ~quick ~seconds ~min_reps:(if quick then 1 else 2) (fun k ->
         if k >= 0 then begin
           untraced := run_rep ~index:(-1) insts :: !untraced;
           let g0 = Gc.quick_stat () in
           Span.on := true;
           let r = run_rep ~index:k insts in
           Span.on := false;
           let g1 = Gc.quick_stat () in
           gc := (g0, g1) :: !gc;
           traced := r :: !traced
         end
         else ignore (run_rep ~index:k insts)));
  let trep = Array.of_list (List.rev !traced) in
  let all = Array.append trep (Array.of_list (List.rev !untraced)) in
  let v = { marks = Array.make_matrix (Array.length all) (List.length insts) false; why = [] } in
  check_reps v all ~reference:(if check_figures then reference else None);
  (* Replays, once per distinct build, at the recording size. *)
  let tot =
    {
      engine_s = 0.0; mmu_s = 0.0; tlb_s = 0.0; cache_s = 0.0; pipe_s = 0.0; accesses = 0;
      issues = 0; tlb = [| 0; 0; 0 |]; cache = [| 0; 0; 0; 0 |]; mismatched = []; drift = 0.0;
      oracle_cycles = 0.0;
    }
  in
  let seen = Hashtbl.create 64 in
  Span.on := true;
  List.iteri
    (fun i inst ->
      let key = build_key inst in
      if replayed workload inst && not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        replay_build tot v i { inst with iterations = rec_iterations; mode = Plain }
      end)
    insts;
  Span.on := false;
  let idx = List.init (Array.length trep) Fun.id in
  let host name = Metric.of_samples (name ^ ".host_s") "s" (Span.rep_totals name idx) in
  let per_rep name unit f = Metric.of_samples name unit (Array.to_list (Array.map f trep)) in
  let sims0 = trep.(0).sims in
  let total_insns = isum insns sims0 in
  let disp k = isum (fun s -> s.disp.(k)) sims0 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let fratio a b = if b = 0.0 then 0.0 else a /. b in
  let profiled f (r : rep) =
    float_of_int (isum (fun s -> if s.inst.mode = Profiled then f s else 0) r.sims)
  in
  let l1, l2, l3, dram = (tot.cache.(0), tot.cache.(1), tot.cache.(2), tot.cache.(3)) in
  let cache_total = l1 + l2 + l3 + dram in
  let gc_delta f = List.rev_map (fun ((a : Gc.stat), (b : Gc.stat)) -> f b -. f a) !gc in
  let removed, sites =
    Array.fold_left (fun (r, t) s -> (r + fst s.gateopt, t + snd s.gateopt)) (0, 0) sims0
  in
  let cpi = Array.make X86sim.Pipeline.cls_count 0.0 in
  Array.iter (fun s -> Array.iteri (fun k c -> cpi.(k) <- cpi.(k) +. c) s.cpi) sims0;
  let wall reps = Metric.median (List.map (fun (r : rep) -> r.wall) reps) in
  let matched layer = if List.mem layer tot.mismatched then 0.0 else 1.0 in
  let metrics =
    [
      Metric.single "mmu.replay_s" "s" tot.mmu_s;
      Metric.single "mmu.ns_per_access" "ns" (1e9 *. fratio tot.mmu_s (float_of_int tot.accesses));
      Metric.single "mmu.replay_match" "bool" (matched "mmu");
      Metric.single "tlb.replay_s" "s" tot.tlb_s;
      Metric.single "tlb.hit_rate" "ratio" (ratio tot.tlb.(0) (tot.tlb.(0) + tot.tlb.(1)));
      Metric.single "tlb.walk_cycles" "cycles" (float_of_int tot.tlb.(2));
      Metric.single "tlb.replay_match" "bool" (matched "tlb");
      Metric.single "cache.replay_s" "s" tot.cache_s;
      Metric.single "cache.l1_hit_rate" "ratio" (ratio l1 cache_total);
      Metric.single "cache.l2_hit_rate" "ratio" (ratio l2 (cache_total - l1));
      Metric.single "cache.l3_hit_rate" "ratio" (ratio l3 (cache_total - l1 - l2));
      Metric.single "cache.dram_accesses" "count" (float_of_int dram);
      Metric.single "cache.replay_match" "bool" (matched "cache");
      Metric.single "pipeline.replay_s" "s" tot.pipe_s;
      Metric.single "pipeline.ns_per_issue" "ns"
        (1e9 *. fratio tot.pipe_s (float_of_int tot.issues));
    ]
    @ Array.to_list
        (Array.mapi
           (fun k name ->
             Metric.single ("pipeline.cpi." ^ name) "cycles/insn"
               (fratio cpi.(k) (float_of_int total_insns)))
           X86sim.Pipeline.cls_names)
    @ [
        Metric.single "dispatch.engine_s" "s" tot.engine_s;
        Metric.single "dispatch.residual_s" "s" (tot.engine_s -. tot.mmu_s -. tot.pipe_s);
        Metric.single "dispatch.blocks_compiled" "count" (float_of_int (disp 0));
        Metric.single "dispatch.traces_formed" "count" (float_of_int (disp 1));
        Metric.single "dispatch.trace_coverage" "ratio" (ratio (disp 2) total_insns);
        Metric.single "dispatch.side_exit_ratio" "ratio" (ratio (disp 3) (disp 4));
        Metric.single "dispatch.inline_hit_ratio" "ratio" (ratio (disp 5) (disp 5 + disp 6));
        per_rep "hooks.step_calls" "count" (profiled insns);
        per_rep "hooks.events" "count" (profiled (fun s -> s.events));
        host "synth";
        host "lower";
        host "prepare";
        host "run";
        Metric.single "gateopt.checks_removed_ratio" "ratio" (ratio removed sites);
        Metric.of_samples "gc.minor_words" "words" (gc_delta (fun g -> g.Gc.minor_words));
        Metric.of_samples "gc.promoted_words" "words" (gc_delta (fun g -> g.Gc.promoted_words));
        Metric.of_samples "gc.major_collections" "count"
          (gc_delta (fun g -> float_of_int g.Gc.major_collections));
        Metric.single "gc.top_heap_mb" "MB"
          (float_of_int (snd (List.hd !gc)).Gc.top_heap_words *. 8.0 /. 1e6);
        Metric.single "trace.overhead_s" "s"
          (wall (Array.to_list trep) -. wall (List.rev !untraced));
        Metric.single "model_drift" "ratio" (fratio tot.drift tot.oracle_cycles);
      ]
  in
  (* Layers only some workloads call stay off the summary line, where a
     time that reads 0 on every run of a workload would look unmeasured. *)
  let partial = List.map host [ "profiler"; "fastprof"; "instr"; "verify"; "gateopt"; "report" ] in
  finish ~workload ~traced:true ~reps:(Array.length trep) v metrics partial (figures_text trep)
