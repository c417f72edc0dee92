open Ms_util

type defense = {
  dname : string;
  protects_reads : bool;
  protects_writes : bool;
  probabilistic : bool;
  deterministic : bool;
  instrumentation : string;
}

let defenses =
  [
    { dname = "CCFIR"; protects_reads = true; protects_writes = false; probabilistic = true;
      deterministic = false; instrumentation = "Indirect branches" };
    { dname = "O-CFI"; protects_reads = true; protects_writes = false; probabilistic = true;
      deterministic = false; instrumentation = "Indirect branches" };
    { dname = "Shadow Stack"; protects_reads = false; protects_writes = true;
      probabilistic = true; deterministic = false; instrumentation = "call/ret" };
    { dname = "StackArmor"; protects_reads = true; protects_writes = true;
      probabilistic = true; deterministic = false; instrumentation = "call/ret" };
    { dname = "TASR"; protects_reads = true; protects_writes = false; probabilistic = true;
      deterministic = false; instrumentation = "System I/O" };
    { dname = "Isomeron"; protects_reads = true; protects_writes = false;
      probabilistic = true; deterministic = false; instrumentation = "Indirect branches" };
    { dname = "Oxymoron"; protects_reads = true; protects_writes = false;
      probabilistic = true; deterministic = false;
      instrumentation = "Code page across edges" };
    { dname = "CPI"; protects_reads = true; protects_writes = true; probabilistic = true;
      deterministic = true; instrumentation = "Memory accesses" };
    { dname = "CCFI"; protects_reads = false; protects_writes = true; probabilistic = false;
      deterministic = true; instrumentation = "Memory accesses" };
    { dname = "ASLR-Guard"; protects_reads = true; protects_writes = true;
      probabilistic = true; deterministic = false; instrumentation = "Memory accesses" };
    { dname = "DieHard"; protects_reads = false; protects_writes = true;
      probabilistic = true; deterministic = false; instrumentation = "malloc/free" };
    { dname = "Readactor"; protects_reads = true; protects_writes = false;
      probabilistic = false; deterministic = true; instrumentation = "Indirect branches" };
    { dname = "LR2"; protects_reads = true; protects_writes = false; probabilistic = false;
      deterministic = true; instrumentation = "Mem. accesses & ind. branches" };
  ]

type application_row = { isolation : string; points : string; application : string }

let applications =
  [
    { isolation = "Address-based"; points = "Loads"; application = "Code randomization" };
    { isolation = "Address-based"; points = "Loads"; application = "CFI variants" };
    { isolation = "Address-based"; points = "Stores"; application = "ShadowStack" };
    { isolation = "Address-based"; points = "Stores"; application = "CPI" };
    { isolation = "Address-based"; points = "Both + points-to info";
      application = "Program data" };
    { isolation = "Domain-based"; points = "call + ret"; application = "ShadowStack" };
    { isolation = "Domain-based"; points = "Indirect branches"; application = "CFI variants" };
    { isolation = "Domain-based"; points = "Indirect branches";
      application = "Layout randomization" };
    { isolation = "Domain-based"; points = "System calls";
      application = "Layout randomization" };
    { isolation = "Domain-based"; points = "Allocator calls"; application = "Heap" };
    { isolation = "Domain-based"; points = "Points-to info"; application = "Program data" };
  ]

let yn b = if b then "yes" else "-"

let table1 () =
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Left ]
      [ "Defense"; "Vuln r"; "Vuln w"; "Prob."; "Det."; "Instrumentation points" ]
  in
  List.iter
    (fun d ->
      Table_fmt.add_row t
        [
          d.dname; yn d.protects_reads; yn d.protects_writes; yn d.probabilistic;
          yn d.deterministic; d.instrumentation;
        ])
    defenses;
  "Table 1: defense systems based on memory isolation\n" ^ Table_fmt.render t

let table2 () =
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Left; Table_fmt.Left; Table_fmt.Left ]
      [ "Isolation"; "Instrumentation points"; "Application" ]
  in
  List.iter (fun r -> Table_fmt.add_row t [ r.isolation; r.points; r.application ]) applications;
  "Table 2: applications of MemSentry\n" ^ Table_fmt.render t

let granularity_string = function
  | Technique.Byte -> "byte"
  | Technique.Chunk16 -> "128 bytes"
  | Technique.Page -> "page"
  | Technique.Any -> "(mask-dependent)"

let table3 () =
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Left; Table_fmt.Left; Table_fmt.Right; Table_fmt.Left ]
      [ "Technique"; "Class"; "Max domains"; "Granularity" ]
  in
  List.iter
    (fun tech ->
      let cls =
        match Technique.isolation_class tech with
        | Technique.Address_based -> "address"
        | Technique.Domain_based -> "domain"
      in
      let doms =
        match Technique.max_domains tech with Some n -> string_of_int n | None -> "infinite"
      in
      Table_fmt.add_row t
        [ Technique.name tech; cls; doms; granularity_string (Technique.granularity tech) ])
    (List.filter
       (fun x -> x <> Technique.Mprotect && x <> Technique.Isboxing)
       Technique.all);
  "Table 3: limitations of memory isolation techniques\n" ^ Table_fmt.render t

let site_table prof =
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Right; Table_fmt.Left; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Right ]
      [ "Site"; "Label"; "@rip"; "Crossings"; "Checks"; "Cycles"; "Cyc/event"; "TLB miss";
        "$ miss"; "Faults" ]
  in
  let cyc f = Printf.sprintf "%.0f" f in
  List.iter
    (fun (r : Profiler.row) ->
      let events = r.Profiler.crossings + r.Profiler.checks in
      Table_fmt.add_row t
        [
          string_of_int r.Profiler.site.Sitemap.id;
          r.Profiler.site.Sitemap.label;
          string_of_int r.Profiler.site.Sitemap.orig_rip;
          string_of_int r.Profiler.crossings;
          string_of_int r.Profiler.checks;
          cyc r.Profiler.cycles;
          (if events = 0 then "-" else cyc (r.Profiler.cycles /. float_of_int events));
          string_of_int r.Profiler.tlb_misses;
          string_of_int r.Profiler.cache_misses;
          string_of_int r.Profiler.faults;
        ])
    (Profiler.rows prof);
  let app = Profiler.residual prof in
  Table_fmt.add_row t
    [ "-"; "(app)"; "-"; "-"; "-"; cyc app.Profiler.r_cycles; "-";
      string_of_int app.Profiler.r_tlb_misses; string_of_int app.Profiler.r_cache_misses;
      string_of_int app.Profiler.r_faults ];
  Table_fmt.add_row t
    [
      ""; "total"; "";
      string_of_int (Profiler.total_crossings prof);
      string_of_int (Profiler.total_checks prof);
      cyc (Profiler.overhead_cycles prof);
      ""; ""; ""; "";
    ];
  Table_fmt.render t

let cpi_table (prof : Fastprof.t) =
  let open X86sim in
  let cls = Pipeline.cls_names in
  let nc = Array.length cls in
  let t =
    Table_fmt.create
      ~align:
        (Table_fmt.Left :: Table_fmt.Left
        :: List.init (nc + 1) (fun _ -> Table_fmt.Right))
      ("Row" :: "Technique" :: (Array.to_list cls @ [ "Total" ]))
  in
  let cyc f = Printf.sprintf "%.0f" f in
  let totals = Array.make nc 0.0 in
  List.iter
    (fun (r : Fastprof.row) ->
      Array.iteri (fun c w -> totals.(c) <- totals.(c) +. w) r.Fastprof.fp_classes;
      let name =
        if r.Fastprof.fp_rip < 0 then r.Fastprof.fp_label
        else Printf.sprintf "%s@%d" r.Fastprof.fp_label r.Fastprof.fp_rip
      in
      Table_fmt.add_row t
        (name :: r.Fastprof.fp_technique
        :: (List.map cyc (Array.to_list r.Fastprof.fp_classes)
           @ [ cyc (Fastprof.row_cycles r) ])))
    prof.Fastprof.p_rows;
  Table_fmt.add_row t
    ("total" :: ""
    :: (List.map cyc (Array.to_list totals)
       @ [ cyc (Array.fold_left ( +. ) 0.0 totals) ]));
  Table_fmt.render t

let hot_blocks_table ?(top = 10) (prof : Fastprof.t) =
  let open X86sim in
  let blocks =
    List.sort
      (fun (a : Ublock.stat) b -> compare b.Ublock.s_exec a.Ublock.s_exec)
      prof.Fastprof.p_blocks
  in
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Left ]
      [ "Entry"; "Insns"; "Execs"; "Taken"; "Fall"; "Indirect (votes/total)" ]
  in
  List.iteri
    (fun i (s : Ublock.stat) ->
      if i < top then
        Table_fmt.add_row t
          [
            string_of_int s.Ublock.s_entry;
            string_of_int s.Ublock.s_insns;
            string_of_int s.Ublock.s_exec;
            string_of_int s.Ublock.s_taken;
            string_of_int s.Ublock.s_fall;
            (if s.Ublock.s_dyn_total = 0 then "-"
             else
               Printf.sprintf "-> %d (%d/%d)" s.Ublock.s_dyn_target s.Ublock.s_dyn_votes
                 s.Ublock.s_dyn_total);
          ])
    blocks;
  Table_fmt.render t

(* The block profile as CFG edges: every static exit contributes its
   exact count; indirect exits contribute the majority target (votes are
   a Boyer-Moore lower bound on its true count). *)
let edges_of (prof : Fastprof.t) =
  let open X86sim in
  List.concat_map
    (fun (s : Ublock.stat) ->
      let e kind dst count = if dst >= 0 && count > 0 then [ (s.Ublock.s_entry, dst, kind, count) ] else [] in
      e "taken" s.Ublock.s_taken_target s.Ublock.s_taken
      @ e "fall" s.Ublock.s_fall_target s.Ublock.s_fall
      @ e "indirect" s.Ublock.s_dyn_target s.Ublock.s_dyn_votes)
    prof.Fastprof.p_blocks

let hot_edges_table ?(top = 10) (prof : Fastprof.t) =
  let edges =
    List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) (edges_of prof)
  in
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Right; Table_fmt.Right; Table_fmt.Left; Table_fmt.Right ]
      [ "From"; "To"; "Kind"; "Count" ]
  in
  List.iteri
    (fun i (src, dst, kind, count) ->
      if i < top then
        Table_fmt.add_row t
          [ string_of_int src; string_of_int dst; kind; string_of_int count ])
    edges;
  Table_fmt.render t

let trace_summary (prof : Fastprof.t) =
  let live = List.length prof.Fastprof.p_traces in
  let pct =
    if prof.Fastprof.p_insns = 0 then 0.0
    else 100.0 *. float_of_int prof.Fastprof.p_trace_covered /. float_of_int prof.Fastprof.p_insns
  in
  let optimized =
    if
      prof.Fastprof.p_trace_fused = 0 && prof.Fastprof.p_trace_slots = 0
      && prof.Fastprof.p_trace_dead_flags = 0
    then ""
    else
      Printf.sprintf "; optimizer: %d fused, %d slots (%d/%d hit), %d dead flags"
        prof.Fastprof.p_trace_fused prof.Fastprof.p_trace_slots prof.Fastprof.p_inline_hits
        (prof.Fastprof.p_inline_hits + prof.Fastprof.p_inline_misses)
        prof.Fastprof.p_trace_dead_flags
  in
  let aborts =
    let total =
      prof.Fastprof.p_abort_cold + prof.Fastprof.p_abort_indirect + prof.Fastprof.p_abort_cap
      + prof.Fastprof.p_abort_handler
    in
    if total = 0 then ""
    else
      Printf.sprintf "; chain ends: %d cold-branch, %d indirect-minority, %d cap, %d handler"
        prof.Fastprof.p_abort_cold prof.Fastprof.p_abort_indirect prof.Fastprof.p_abort_cap
        prof.Fastprof.p_abort_handler
  in
  Printf.sprintf
    "superblocks: %d formed (%d live, %d invalidated); %d of %d retired insns inside traces \
     (%.1f%% coverage)%s%s"
    prof.Fastprof.p_traces_formed live prof.Fastprof.p_traces_invalidated
    prof.Fastprof.p_trace_covered prof.Fastprof.p_insns pct optimized aborts

let trace_table ?(top = 10) (prof : Fastprof.t) =
  let open X86sim in
  let traces =
    List.sort
      (fun (a : Trace.stat) b -> compare b.Trace.t_cycles a.Trace.t_cycles)
      prof.Fastprof.p_traces
  in
  let t =
    Table_fmt.create
      ~align:[ Table_fmt.Right; Table_fmt.Left; Table_fmt.Right; Table_fmt.Right;
               Table_fmt.Right; Table_fmt.Right; Table_fmt.Left ]
      [ "Entry"; "Blocks"; "Insns"; "Execs"; "Side exits"; "Cycles"; "Loop" ]
  in
  List.iteri
    (fun i (s : Trace.stat) ->
      if i < top then
        Table_fmt.add_row t
          [
            string_of_int s.Trace.t_entry;
            String.concat "," (List.map string_of_int s.Trace.t_blocks);
            string_of_int s.Trace.t_insns;
            string_of_int s.Trace.t_execs;
            string_of_int s.Trace.t_side_exits;
            Printf.sprintf "%.0f" s.Trace.t_cycles;
            (if s.Trace.t_loops then "yes" else "-");
          ])
    traces;
  Table_fmt.render t

let print_all () =
  print_string (table1 ());
  print_newline ();
  print_string (table2 ());
  print_newline ();
  print_string (table3 ())
