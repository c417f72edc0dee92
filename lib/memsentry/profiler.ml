open X86sim

type row = {
  site : Sitemap.site;
  mutable crossings : int;
  mutable checks : int;
  mutable cycles : float;
  mutable tlb_misses : int;
  mutable cache_misses : int;
  mutable faults : int;
}

type residual = {
  mutable r_cycles : float;
  mutable r_tlb_misses : int;
  mutable r_cache_misses : int;
  mutable r_faults : int;
}

type t = {
  prepared : Framework.prepared;
  stats : row array;
  app : residual;
  span_rec : Tracer.spans;
  technique : string;
  seq_gate : Event.gate option;  (* the gate of injected events, if any *)
  mutable event_hook : int option;
}

(* MPK and VMFUNC gates are single instructions the CPU itself reports;
   crypt and mprotect gates are plain instruction sequences, so the
   profiler injects [Event.Seq] gate events for them at the sitemap
   boundaries. Address-based techniques have checks, not gates. *)
let injects_seq_gates = function
  | Technique.Crypt | Technique.Mprotect -> true
  | Technique.Sfi | Technique.Mpx | Technique.Isboxing | Technique.Mpk _ | Technique.Vmfunc
  | Technique.Sgx ->
    false

(* A crossing/check fires on the transition into a tagged range, so a
   straight-line enter sequence counts once however long it is. *)
let on_class t (c : Cpu.t) cls =
  if cls <> 0 then
    let s = t.stats.(Sitemap.class_site cls) in
    match Sitemap.class_role cls with
    | (Sitemap.Gate_open | Sitemap.Gate_close) as role -> (
      s.crossings <- s.crossings + 1;
      match t.seq_gate with
      | Some gate ->
        let rip = c.Cpu.rip in
        Cpu.emit c
          (if role = Sitemap.Gate_open then Event.Gate_enter { rip; gate }
           else Event.Gate_exit { rip; gate })
      | None -> ())
    | Sitemap.Check | Sitemap.Hoisted_check -> s.checks <- s.checks + 1

let attribute t ~tlb ~cache ~fault rip =
  let map = t.prepared.Framework.cpu.Cpu.site_of in
  let cls = if rip >= 0 && rip < Array.length map then map.(rip) else 0 in
  if cls <> 0 then begin
    let s = t.stats.(Sitemap.class_site cls) in
    s.tlb_misses <- s.tlb_misses + tlb;
    s.cache_misses <- s.cache_misses + cache;
    s.faults <- s.faults + fault
  end
  else begin
    t.app.r_tlb_misses <- t.app.r_tlb_misses + tlb;
    t.app.r_cache_misses <- t.app.r_cache_misses + cache;
    t.app.r_faults <- t.app.r_faults + fault
  end

let on_event t ev =
  match ev with
  | Event.Tlb_miss { rip; _ } -> attribute t ~tlb:1 ~cache:0 ~fault:0 rip
  | Event.Cache_miss { rip; _ } -> attribute t ~tlb:0 ~cache:1 ~fault:0 rip
  | Event.Fault { rip; _ } -> attribute t ~tlb:0 ~cache:0 ~fault:1 rip
  | Event.Gate_enter _ | Event.Gate_exit _ | Event.Vm_exit _ -> ()

let attach (p : Framework.prepared) =
  let cpu = p.Framework.cpu in
  let plan = p.Framework.plan in
  let sm = plan.Framework.sitemap in
  let stats =
    Array.of_list
      (List.map
         (fun site ->
           { site; crossings = 0; checks = 0; cycles = 0.0; tlb_misses = 0; cache_misses = 0; faults = 0 })
         (Sitemap.sites sm))
  in
  let tech = plan.Framework.cfg.Framework.technique in
  let technique = Technique.name tech in
  let t =
    {
      prepared = p;
      stats;
      app = { r_cycles = 0.0; r_tlb_misses = 0; r_cache_misses = 0; r_faults = 0 };
      span_rec = Tracer.record_spans cpu;
      technique;
      seq_gate = (if injects_seq_gates tech then Some (Event.Seq technique) else None);
      event_hook = None;
    }
  in
  Fastprof.install p;
  Cpu.set_class_hook cpu (on_class t);
  t.event_hook <- Some (Cpu.add_event_hook cpu (on_event t));
  t

let stop t =
  let cpu = t.prepared.Framework.cpu in
  (match t.event_hook with
  | Some id ->
    Cpu.clear_class_hook cpu;
    Cpu.remove_event_hook cpu id;
    t.event_hook <- None;
    (* Core 0's CPI rows: row 0 is the app, row [id + 1] site [id]. *)
    List.iteri
      (fun i r ->
        let cycles = Fastprof.row_cycles r in
        if i = 0 then t.app.r_cycles <- cycles else t.stats.(i - 1).cycles <- cycles)
      (Fastprof.rows t.prepared.Framework.plan.Framework.sitemap cpu)
  | None -> ());
  Tracer.stop t.span_rec

let rows t = Array.to_list t.stats
let residual t = t.app
let total_crossings t = Array.fold_left (fun acc r -> acc + r.crossings) 0 t.stats
let total_checks t = Array.fold_left (fun acc r -> acc + r.checks) 0 t.stats

let overhead_cycles t = Array.fold_left (fun acc r -> acc +. r.cycles) 0.0 t.stats

let spans t = Tracer.spans t.span_rec
let unmatched_exits t = Tracer.unmatched_exits t.span_rec

let residency_histogram t =
  let h = Ms_util.Metrics.create () in
  List.iter (fun s -> Ms_util.Metrics.observe h (Tracer.span_cycles s)) (spans t);
  h

let annotate t (s : Tracer.span) =
  match Sitemap.lookup t.prepared.Framework.plan.Framework.sitemap s.Tracer.enter_rip with
  | Some (site, _) ->
    [
      ("site", Ms_util.Json.Int site.Sitemap.id);
      ("label", Ms_util.Json.String site.Sitemap.label);
      ("technique", Ms_util.Json.String site.Sitemap.technique);
    ]
  | None -> []

let trace_json t =
  Chrome_trace.to_json
    ~process_name:(Printf.sprintf "memsentry:%s" t.technique)
    ~annotate:(annotate t) (spans t)

let row_json r =
  let open Ms_util.Json in
  Obj
    [
      ("site", Int r.site.Sitemap.id);
      ("label", String r.site.Sitemap.label);
      ("technique", String r.site.Sitemap.technique);
      ("orig_rip", Int r.site.Sitemap.orig_rip);
      ("crossings", Int r.crossings);
      ("checks", Int r.checks);
      ("cycles", Float r.cycles);
      ("tlb_misses", Int r.tlb_misses);
      ("cache_misses", Int r.cache_misses);
      ("faults", Int r.faults);
    ]

let to_json t =
  let open Ms_util.Json in
  let residency = residency_histogram t in
  Obj
    [
      ("technique", String t.technique);
      ("sites", List (List.map row_json (rows t)));
      ( "app",
        Obj
          [
            ("cycles", Float t.app.r_cycles);
            ("tlb_misses", Int t.app.r_tlb_misses);
            ("cache_misses", Int t.app.r_cache_misses);
            ("faults", Int t.app.r_faults);
          ] );
      ( "totals",
        Obj
          [
            ("crossings", Int (total_crossings t));
            ("checks", Int (total_checks t));
            ("overhead_cycles", Float (overhead_cycles t));
            ("spans", Int (List.length (spans t)));
            ("unmatched_exits", Int (unmatched_exits t));
          ] );
      ( "residency",
        Obj
          [
            ("count", Int (Ms_util.Metrics.count residency));
            ("sum_cycles", Float (Ms_util.Metrics.sum residency));
            ("p50", Float (Ms_util.Metrics.p50 residency));
            ("p95", Float (Ms_util.Metrics.p95 residency));
            ("p99", Float (Ms_util.Metrics.p99 residency));
          ] );
      ("perf", Perf_report.to_json (Perf_report.capture t.prepared.Framework.cpu));
    ]
