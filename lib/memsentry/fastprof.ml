open X86sim
module Json = Ms_util.Json

type row = {
  fp_label : string;
  fp_technique : string;
  fp_rip : int;
  fp_classes : float array;
}

type t = {
  p_workload : string;
  p_technique : string;
  p_cycles : float;
  p_insns : int;
  p_rows : row list;
  p_blocks : Ublock.stat list;
  p_traces : Trace.stat list;
  p_traces_formed : int;
  p_traces_invalidated : int;
  p_trace_covered : int;
  p_trace_fused : int;  (** macro-fused pairs installed at formation *)
  p_trace_slots : int;  (** inline translation slots installed *)
  p_trace_dead_flags : int;  (** dead flag writes elided *)
  p_inline_hits : int;  (** runtime inline-slot short-circuits *)
  p_inline_misses : int;  (** runtime inline-slot misses (eager path) *)
  p_abort_cold : int;  (** formation walks stopped at a cold branch *)
  p_abort_indirect : int;  (** stopped at a majority-less indirect *)
  p_abort_cap : int;  (** stopped at the max_segs/max_insns cap *)
  p_abort_handler : int;  (** stopped at a halt/handler terminator *)
  p_compiles : int;
  p_invalidations : int;
  p_l1_evictions : int;
  p_l2_evictions : int;
  p_l3_evictions : int;
  p_tlb_evictions : int;
  p_walk_cycles : int;
}

let install_on cpu (sm : Sitemap.t) =
  let len = Program.length cpu.Cpu.program in
  let map = Array.make len 0 in
  for rip = 0 to len - 1 do
    match Sitemap.classify sm rip with
    | Some (site, _role) -> map.(rip) <- site + 1
    | None -> ()
  done;
  Cpu.set_site_rows cpu map ~rows:(Sitemap.n_sites sm + 1)

let install (p : Framework.prepared) = install_on p.Framework.cpu p.Framework.sitemap

let install_smp (s : Framework.smp) =
  let sm = s.Framework.prepared.Framework.sitemap in
  Array.iter (fun cpu -> install_on cpu sm) (Machine.cpus s.Framework.machine)

let row_cycles r = Array.fold_left ( +. ) 0.0 r.fp_classes

let total_cycles t = List.fold_left (fun a r -> a +. row_cycles r) 0.0 t.p_rows

let capture_cpu ?workload ~technique (sm : Sitemap.t) (cpu : Cpu.t) =
  let pipe = cpu.Cpu.pipe in
  let cpi = Pipeline.cpi_rows pipe in
  let n_rows = Pipeline.cpi_row_count pipe in
  let row_of i =
    let classes =
      Array.init Pipeline.cls_count (fun c -> cpi.((i * Pipeline.cls_count) + c))
    in
    if i = 0 then { fp_label = "app"; fp_technique = ""; fp_rip = -1; fp_classes = classes }
    else
      let s = Sitemap.site sm (i - 1) in
      {
        fp_label = s.Sitemap.label;
        fp_technique = s.Sitemap.technique;
        fp_rip = s.Sitemap.orig_rip;
        fp_classes = classes;
      }
  in
  let cache = cpu.Cpu.mmu.Mmu.cache in
  let tier = cpu.Cpu.traces in
  {
    p_workload = (match workload with Some w -> w | None -> "");
    p_technique = technique;
    p_cycles = Cpu.cycles cpu;
    p_insns = cpu.Cpu.counters.Cpu.insns;
    p_rows = List.init n_rows row_of;
    p_blocks = Ublock.stats cpu.Cpu.tcache;
    p_traces = Trace.stats tier;
    p_traces_formed = tier.Trace.formed_count;
    p_traces_invalidated = tier.Trace.invalidated_count;
    p_trace_covered = tier.Trace.covered_insns;
    p_trace_fused = tier.Trace.fused_uops;
    p_trace_slots = tier.Trace.cached_slots;
    p_trace_dead_flags = tier.Trace.dead_flags;
    p_inline_hits = tier.Trace.inline_hits;
    p_inline_misses = tier.Trace.inline_misses;
    p_abort_cold = tier.Trace.abort_cold_branch;
    p_abort_indirect = tier.Trace.abort_indirect_minority;
    p_abort_cap = tier.Trace.abort_cap_hit;
    p_abort_handler = tier.Trace.abort_handler_term;
    p_compiles = Ublock.compiles cpu.Cpu.tcache;
    p_invalidations = Ublock.invalidations cpu.Cpu.tcache;
    p_l1_evictions = Cache.l1_evictions cache;
    p_l2_evictions = Cache.l2_evictions cache;
    p_l3_evictions = Cache.l3_evictions cache;
    p_tlb_evictions = Tlb.evictions cpu.Cpu.mmu.Mmu.tlb;
    p_walk_cycles = cpu.Cpu.mmu.Mmu.walk_cycles;
  }

let capture ?workload (p : Framework.prepared) =
  capture_cpu ?workload
    ~technique:(Technique.name p.Framework.cfg.Framework.technique)
    p.Framework.sitemap p.Framework.cpu

let capture_smp ?workload (s : Framework.smp) =
  let p = s.Framework.prepared in
  let technique = Technique.name p.Framework.cfg.Framework.technique in
  Array.to_list
    (Array.mapi
       (fun i cpu ->
         let workload =
           match workload with Some w -> Some (Printf.sprintf "%s/core%d" w i) | None -> None
         in
         capture_cpu ?workload ~technique p.Framework.sitemap cpu)
       (Machine.cpus s.Framework.machine))

(* Merge per-core profiles into one machine-wide profile: cycles and
   counters sum (note L3 evictions are shared-tier counters aliased into
   every core's capture, so they are taken from the first profile only),
   CPI rows merge by (label, rip) with element-wise class addition, block
   stats merge by entry. Row/block order follows the first profile, with
   rows only the later cores saw appended. *)
let merge = function
  | [] -> invalid_arg "Fastprof.merge: empty list"
  | first :: _ as all ->
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun t ->
        List.iter
          (fun r ->
            let k = (r.fp_label, r.fp_rip) in
            match Hashtbl.find_opt tbl k with
            | Some acc ->
              Array.iteri (fun i c -> acc.fp_classes.(i) <- acc.fp_classes.(i) +. c) r.fp_classes
            | None ->
              let acc = { r with fp_classes = Array.copy r.fp_classes } in
              Hashtbl.add tbl k acc;
              order := k :: !order)
          t.p_rows)
      all;
    let rows = List.rev_map (Hashtbl.find tbl) !order in
    let btbl = Hashtbl.create 64 in
    let border = ref [] in
    List.iter
      (fun t ->
        List.iter
          (fun (s : Ublock.stat) ->
            match Hashtbl.find_opt btbl s.Ublock.s_entry with
            | Some (acc : Ublock.stat) ->
              Hashtbl.replace btbl s.Ublock.s_entry
                {
                  acc with
                  Ublock.s_exec = acc.Ublock.s_exec + s.Ublock.s_exec;
                  s_taken = acc.Ublock.s_taken + s.Ublock.s_taken;
                  s_fall = acc.Ublock.s_fall + s.Ublock.s_fall;
                  s_dyn_votes = acc.Ublock.s_dyn_votes + s.Ublock.s_dyn_votes;
                  s_dyn_total = acc.Ublock.s_dyn_total + s.Ublock.s_dyn_total;
                }
            | None ->
              Hashtbl.add btbl s.Ublock.s_entry s;
              border := s.Ublock.s_entry :: !border)
          t.p_blocks)
      all;
    let blocks = List.rev_map (Hashtbl.find btbl) !border in
    let ttbl = Hashtbl.create 16 in
    let torder = ref [] in
    List.iter
      (fun t ->
        List.iter
          (fun (s : Trace.stat) ->
            match Hashtbl.find_opt ttbl s.Trace.t_entry with
            | Some (acc : Trace.stat) ->
              Hashtbl.replace ttbl s.Trace.t_entry
                {
                  acc with
                  Trace.t_execs = acc.Trace.t_execs + s.Trace.t_execs;
                  t_side_exits = acc.Trace.t_side_exits + s.Trace.t_side_exits;
                  t_cycles = acc.Trace.t_cycles +. s.Trace.t_cycles;
                }
            | None ->
              Hashtbl.add ttbl s.Trace.t_entry s;
              torder := s.Trace.t_entry :: !torder)
          t.p_traces)
      all;
    let traces = List.rev_map (Hashtbl.find ttbl) !torder in
    let sum f = List.fold_left (fun a t -> a + f t) 0 all in
    {
      p_workload = first.p_workload;
      p_technique = first.p_technique;
      p_cycles = List.fold_left (fun a t -> a +. t.p_cycles) 0.0 all;
      p_insns = sum (fun t -> t.p_insns);
      p_rows = rows;
      p_blocks = blocks;
      p_traces = traces;
      p_traces_formed = sum (fun t -> t.p_traces_formed);
      p_traces_invalidated = sum (fun t -> t.p_traces_invalidated);
      p_trace_covered = sum (fun t -> t.p_trace_covered);
      p_trace_fused = sum (fun t -> t.p_trace_fused);
      p_trace_slots = sum (fun t -> t.p_trace_slots);
      p_trace_dead_flags = sum (fun t -> t.p_trace_dead_flags);
      p_inline_hits = sum (fun t -> t.p_inline_hits);
      p_inline_misses = sum (fun t -> t.p_inline_misses);
      p_abort_cold = sum (fun t -> t.p_abort_cold);
      p_abort_indirect = sum (fun t -> t.p_abort_indirect);
      p_abort_cap = sum (fun t -> t.p_abort_cap);
      p_abort_handler = sum (fun t -> t.p_abort_handler);
      p_compiles = sum (fun t -> t.p_compiles);
      p_invalidations = sum (fun t -> t.p_invalidations);
      p_l1_evictions = sum (fun t -> t.p_l1_evictions);
      p_l2_evictions = sum (fun t -> t.p_l2_evictions);
      p_l3_evictions = first.p_l3_evictions;
      p_tlb_evictions = sum (fun t -> t.p_tlb_evictions);
      p_walk_cycles = sum (fun t -> t.p_walk_cycles);
    }

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let row_to_json r =
  Json.Obj
    [
      ("label", Json.String r.fp_label);
      ("technique", Json.String r.fp_technique);
      ("rip", Json.Int r.fp_rip);
      ("cycles", Json.List (Array.to_list (Array.map (fun c -> Json.Float c) r.fp_classes)));
    ]

let block_to_json (s : Ublock.stat) =
  Json.Obj
    [
      ("entry", Json.Int s.Ublock.s_entry);
      ("insns", Json.Int s.Ublock.s_insns);
      ("exec", Json.Int s.Ublock.s_exec);
      ("taken", Json.Int s.Ublock.s_taken);
      ("fall", Json.Int s.Ublock.s_fall);
      ("taken_target", Json.Int s.Ublock.s_taken_target);
      ("fall_target", Json.Int s.Ublock.s_fall_target);
      ("dyn_target", Json.Int s.Ublock.s_dyn_target);
      ("dyn_votes", Json.Int s.Ublock.s_dyn_votes);
      ("dyn_total", Json.Int s.Ublock.s_dyn_total);
    ]

let trace_to_json (s : Trace.stat) =
  Json.Obj
    [
      ("entry", Json.Int s.Trace.t_entry);
      ("blocks", Json.List (List.map (fun b -> Json.Int b) s.Trace.t_blocks));
      ("insns", Json.Int s.Trace.t_insns);
      ("execs", Json.Int s.Trace.t_execs);
      ("side_exits", Json.Int s.Trace.t_side_exits);
      ("cycles", Json.Float s.Trace.t_cycles);
      ("loops", Json.Bool s.Trace.t_loops);
    ]

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.p_workload);
      ("technique", Json.String t.p_technique);
      ("cycles", Json.Float t.p_cycles);
      ("insns", Json.Int t.p_insns);
      ( "cpi",
        Json.Obj
          [
            ( "classes",
              Json.List
                (Array.to_list (Array.map (fun n -> Json.String n) Pipeline.cls_names)) );
            ("rows", Json.List (List.map row_to_json t.p_rows));
          ] );
      ("blocks", Json.List (List.map block_to_json t.p_blocks));
      ( "traces",
        Json.Obj
          [
            ("formed", Json.Int t.p_traces_formed);
            ("invalidated", Json.Int t.p_traces_invalidated);
            ("covered_insns", Json.Int t.p_trace_covered);
            ("fused_uops", Json.Int t.p_trace_fused);
            ("cached_slots", Json.Int t.p_trace_slots);
            ("dead_flags", Json.Int t.p_trace_dead_flags);
            ("inline_hits", Json.Int t.p_inline_hits);
            ("inline_misses", Json.Int t.p_inline_misses);
            ( "aborts",
              Json.Obj
                [
                  ("cold_branch", Json.Int t.p_abort_cold);
                  ("indirect_minority", Json.Int t.p_abort_indirect);
                  ("cap_hit", Json.Int t.p_abort_cap);
                  ("handler_term", Json.Int t.p_abort_handler);
                ] );
            ("list", Json.List (List.map trace_to_json t.p_traces));
          ] );
      ( "tcache",
        Json.Obj
          [ ("compiles", Json.Int t.p_compiles); ("invalidations", Json.Int t.p_invalidations) ]
      );
      ( "memory",
        Json.Obj
          [
            ("l1_evictions", Json.Int t.p_l1_evictions);
            ("l2_evictions", Json.Int t.p_l2_evictions);
            ("l3_evictions", Json.Int t.p_l3_evictions);
            ("tlb_evictions", Json.Int t.p_tlb_evictions);
            ("walk_cycles", Json.Int t.p_walk_cycles);
          ] );
    ]

let fail fmt = Printf.ksprintf invalid_arg ("Fastprof.of_json: " ^^ fmt)

let get name j = match Json.member name j with Some v -> v | None -> fail "missing %S" name

let get_int name j =
  match get name j with Json.Int i -> i | _ -> fail "field %S is not an int" name

let get_float name j =
  match get name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "field %S is not a number" name

let get_string name j =
  match get name j with Json.String s -> s | _ -> fail "field %S is not a string" name

let get_list name j =
  match get name j with Json.List l -> l | _ -> fail "field %S is not a list" name

let row_of_json j =
  {
    fp_label = get_string "label" j;
    fp_technique = get_string "technique" j;
    fp_rip = get_int "rip" j;
    fp_classes =
      Array.of_list
        (List.map
           (function
             | Json.Float f -> f
             | Json.Int i -> float_of_int i
             | _ -> fail "row cycles entry is not a number")
           (get_list "cycles" j));
  }

let block_of_json j =
  {
    Ublock.s_entry = get_int "entry" j;
    s_insns = get_int "insns" j;
    s_exec = get_int "exec" j;
    s_taken = get_int "taken" j;
    s_fall = get_int "fall" j;
    s_taken_target = get_int "taken_target" j;
    s_fall_target = get_int "fall_target" j;
    s_dyn_target = get_int "dyn_target" j;
    s_dyn_votes = get_int "dyn_votes" j;
    s_dyn_total = get_int "dyn_total" j;
  }

let trace_of_json j =
  {
    Trace.t_entry = get_int "entry" j;
    t_blocks =
      List.map
        (function Json.Int b -> b | _ -> fail "trace blocks entry is not an int")
        (get_list "blocks" j);
    t_insns = get_int "insns" j;
    t_execs = get_int "execs" j;
    t_side_exits = get_int "side_exits" j;
    t_cycles = get_float "cycles" j;
    t_loops = (match get "loops" j with Json.Bool b -> b | _ -> fail "trace loops not a bool");
  }

let of_json j =
  let cpi = get "cpi" j in
  let tc = get "tcache" j in
  let mem = get "memory" j in
  (* Lenient on the trace section: profiles captured before the trace
     tier existed simply have no superblocks. *)
  let tr name f d = match Json.member "traces" j with None -> d | Some t -> f name t in
  {
    p_workload = get_string "workload" j;
    p_technique = get_string "technique" j;
    p_cycles = get_float "cycles" j;
    p_insns = get_int "insns" j;
    p_rows = List.map row_of_json (get_list "rows" cpi);
    p_blocks = List.map block_of_json (get_list "blocks" j);
    p_traces = List.map trace_of_json (tr "list" get_list []);
    p_traces_formed = tr "formed" get_int 0;
    p_traces_invalidated = tr "invalidated" get_int 0;
    p_trace_covered = tr "covered_insns" get_int 0;
    (* Lenient again inside the trace section: pre-optimizer profiles
       predate these counters. *)
    p_trace_fused = tr "fused_uops" get_int 0;
    p_trace_slots = tr "cached_slots" get_int 0;
    p_trace_dead_flags = tr "dead_flags" get_int 0;
    p_inline_hits = tr "inline_hits" get_int 0;
    p_inline_misses = tr "inline_misses" get_int 0;
    p_abort_cold =
      (match Json.member "traces" j with
      | None -> 0
      | Some t -> (
        match Json.member "aborts" t with None -> 0 | Some a -> get_int "cold_branch" a));
    p_abort_indirect =
      (match Json.member "traces" j with
      | None -> 0
      | Some t -> (
        match Json.member "aborts" t with None -> 0 | Some a -> get_int "indirect_minority" a));
    p_abort_cap =
      (match Json.member "traces" j with
      | None -> 0
      | Some t -> (
        match Json.member "aborts" t with None -> 0 | Some a -> get_int "cap_hit" a));
    p_abort_handler =
      (match Json.member "traces" j with
      | None -> 0
      | Some t -> (
        match Json.member "aborts" t with None -> 0 | Some a -> get_int "handler_term" a));
    p_compiles = get_int "compiles" tc;
    p_invalidations = get_int "invalidations" tc;
    p_l1_evictions = get_int "l1_evictions" mem;
    p_l2_evictions = get_int "l2_evictions" mem;
    p_l3_evictions = get_int "l3_evictions" mem;
    p_tlb_evictions = get_int "tlb_evictions" mem;
    p_walk_cycles = get_int "walk_cycles" mem;
  }

(* ------------------------------------------------------------------ *)
(* Regression diff and flamegraph stacks                               *)
(* ------------------------------------------------------------------ *)

type regression = {
  rg_label : string;
  rg_rip : int;
  rg_before : float;
  rg_after : float;
  rg_ratio : float;
}

let diff ~threshold ~before ~after =
  let key r = (r.fp_label, r.fp_rip) in
  let base = List.map (fun r -> (key r, row_cycles r)) before.p_rows in
  let regressions =
    List.filter_map
      (fun r ->
        let cyc = row_cycles r in
        match List.assoc_opt (key r) base with
        | Some b when b > 0.0 ->
          let ratio = cyc /. b in
          if ratio > 1.0 +. threshold then
            Some { rg_label = r.fp_label; rg_rip = r.fp_rip; rg_before = b; rg_after = cyc;
                   rg_ratio = ratio }
          else None
        | Some _ | None ->
          if cyc > 0.0 then
            Some { rg_label = r.fp_label; rg_rip = r.fp_rip; rg_before = 0.0; rg_after = cyc;
                   rg_ratio = infinity }
          else None)
      after.p_rows
  in
  List.sort (fun a b -> compare b.rg_ratio a.rg_ratio) regressions

let stacks t =
  List.concat_map
    (fun r ->
      let tech = if r.fp_technique = "" then "app" else r.fp_technique in
      let site =
        if r.fp_rip < 0 then r.fp_label else Printf.sprintf "%s@%d" r.fp_label r.fp_rip
      in
      List.filter
        (fun (_, w) -> w > 0.0)
        (List.mapi
           (fun c w -> ([ tech; site; Pipeline.cls_names.(c) ], w))
           (Array.to_list r.fp_classes)))
    t.p_rows
