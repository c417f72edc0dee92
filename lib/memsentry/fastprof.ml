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
  p_compiles : int;
  p_invalidations : int;
  p_l1_evictions : int;
  p_l2_evictions : int;
  p_l3_evictions : int;
  p_tlb_evictions : int;
  p_walk_cycles : int;
}

(* Every core runs the same program, so one read-only map serves all. *)
let install (p : Framework.prepared) =
  let plan = p.Framework.plan in
  let sm = plan.Framework.sitemap in
  let map = Sitemap.class_map sm ~code_length:(Program.length plan.Framework.program) in
  Array.iter
    (fun cpu -> Cpu.set_site_rows cpu map ~rows:(Sitemap.n_sites sm + 1))
    (Machine.cpus p.Framework.machine)

let row_cycles r = Array.fold_left ( +. ) 0.0 r.fp_classes

let total_cycles t = List.fold_left (fun a r -> a +. row_cycles r) 0.0 t.p_rows

let rows (sm : Sitemap.t) (cpu : Cpu.t) =
  let pipe = cpu.Cpu.pipe in
  let cpi = Pipeline.cpi_rows pipe in
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
  List.init (Pipeline.cpi_row_count pipe) row_of

let capture_cpu ?workload ~technique (sm : Sitemap.t) (cpu : Cpu.t) =
  let cache = cpu.Cpu.mmu.Mmu.cache in
  {
    p_workload = (match workload with Some w -> w | None -> "");
    p_technique = technique;
    p_cycles = Cpu.cycles cpu;
    p_insns = cpu.Cpu.counters.Cpu.insns;
    p_rows = rows sm cpu;
    p_blocks = Ublock.stats cpu.Cpu.tcache;
    p_compiles = Ublock.compiles cpu.Cpu.tcache;
    p_invalidations = Ublock.invalidations cpu.Cpu.tcache;
    p_l1_evictions = Cache.l1_evictions cache;
    p_l2_evictions = Cache.l2_evictions cache;
    p_l3_evictions = Cache.l3_evictions cache;
    p_tlb_evictions = Tlb.evictions cpu.Cpu.mmu.Mmu.tlb;
    p_walk_cycles = cpu.Cpu.mmu.Mmu.walk_cycles;
  }

(* [capture] labels core [i] of a multi-core machine [w/corei]; [merge]
   strips that suffix again, so the rollup carries the bare name. *)
let core_suffix = "/core"

let machine_workload w =
  match String.rindex_opt w '/' with
  | Some k when String.starts_with ~prefix:core_suffix (String.sub w k (String.length w - k)) ->
    String.sub w 0 k
  | _ -> w

let capture ?workload (p : Framework.prepared) =
  let plan = p.Framework.plan in
  let technique = Technique.name plan.Framework.cfg.Framework.technique in
  let cpus = Machine.cpus p.Framework.machine in
  let workload_of i =
    match workload with
    | Some w when Array.length cpus > 1 -> Some (Printf.sprintf "%s%s%d" w core_suffix i)
    | w -> w
  in
  Array.to_list
    (Array.mapi
       (fun i cpu -> capture_cpu ?workload:(workload_of i) ~technique plan.Framework.sitemap cpu)
       cpus)

(* Merge per-core profiles into one machine-wide profile: cycles and
   counters sum (note L3 evictions are shared-tier counters aliased into
   every core's capture, so they are taken from the first profile only),
   CPI rows merge by (label, rip) with element-wise class addition, block
   stats merge by entry. Row/block order follows the first profile, with
   rows only the later cores saw appended; the workload is the first
   profile's, without its per-core suffix. *)
let merge = function
  | [] -> invalid_arg "Fastprof.merge: empty list"
  | [ t ] -> t
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
    let sum f = List.fold_left (fun a t -> a + f t) 0 all in
    {
      p_workload = machine_workload first.p_workload;
      p_technique = first.p_technique;
      p_cycles = List.fold_left (fun a t -> a +. t.p_cycles) 0.0 all;
      p_insns = sum (fun t -> t.p_insns);
      p_rows = rows;
      p_blocks = blocks;
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

let of_json j =
  let cpi = get "cpi" j in
  let tc = get "tcache" j in
  let mem = get "memory" j in
  (* Profiles written while the engine still had a trace tier carry a
     "traces" section; it is ignored like any other unread member. *)
  {
    p_workload = get_string "workload" j;
    p_technique = get_string "technique" j;
    p_cycles = get_float "cycles" j;
    p_insns = get_int "insns" j;
    p_rows = List.map row_of_json (get_list "rows" cpi);
    p_blocks = List.map block_of_json (get_list "blocks" j);
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
