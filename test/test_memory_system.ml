(* Focused tests of the memory-system components: cache replacement, TLB
   generation-based invalidation, page-table semantics, physical memory,
   pipeline timing properties, and the perf report. *)

open X86sim

(* --- cache --- *)

let test_cache_lru_within_set () =
  let c = Cache.create () in
  (* L1: 64 sets x 8 ways. Addresses mapping to set 0: line k*64*64. *)
  let addr way = way * 64 * 64 in
  (* Fill set 0 with 8 lines; all miss then hit. *)
  for w = 0 to 7 do
    ignore (Cache.access c ~addr:(addr w))
  done;
  Alcotest.(check int) "re-access hits L1" Cache.lat_l1 (Cache.access c ~addr:(addr 0));
  (* Touch 0 (refresh LRU), add a 9th line: victim must be line 1, not 0. *)
  ignore (Cache.access c ~addr:(addr 0));
  ignore (Cache.access c ~addr:(addr 8));
  Alcotest.(check int) "refreshed line survives" Cache.lat_l1 (Cache.access c ~addr:(addr 0));
  Alcotest.(check bool) "victim evicted from L1" true (Cache.access c ~addr:(addr 1) > Cache.lat_l1)

let test_cache_levels_degrade () =
  let c = Cache.create () in
  Alcotest.(check int) "cold = DRAM" Cache.lat_dram (Cache.access c ~addr:0x1000);
  Alcotest.(check int) "warm = L1" Cache.lat_l1 (Cache.access c ~addr:0x1000);
  Alcotest.(check bool) "stats recorded" true (Cache.dram_accesses c = 1 && Cache.l1_hits c = 1)

let test_cache_flush () =
  let c = Cache.create () in
  ignore (Cache.access c ~addr:0x40);
  Cache.flush c;
  Alcotest.(check int) "flushed = DRAM" Cache.lat_dram (Cache.access c ~addr:0x40)

(* --- TLB --- *)

(* [Tlb.probe] returns the packed entry word on a hit:
   hfn lsl 6 | pkey lsl 2 | readable lsl 1 | writable. *)
let test_tlb_generation_invalidation () =
  let tlb = Tlb.create ~slots:16 () in
  Tlb.insert tlb ~vpn:3 ~ept:0 ~pt_gen:1 ~ept_gen:0 ~hfn:7 ~readable:true ~writable:true ~pkey:0;
  Alcotest.(check int) "hits at same generation" ((7 lsl 6) lor 0b11)
    (Tlb.probe tlb ~vpn:3 ~ept:0 ~pt_gen:1 ~ept_gen:0);
  Alcotest.(check int) "stale pt generation misses" (-1)
    (Tlb.probe tlb ~vpn:3 ~ept:0 ~pt_gen:2 ~ept_gen:0);
  Alcotest.(check int) "stale EPT generation misses" (-1)
    (Tlb.probe tlb ~vpn:3 ~ept:0 ~pt_gen:1 ~ept_gen:1);
  Alcotest.(check int) "different EPT tag misses" (-1)
    (Tlb.probe tlb ~vpn:3 ~ept:1 ~pt_gen:1 ~ept_gen:0);
  Alcotest.(check int) "hits counted" 1 (Tlb.hits tlb);
  Alcotest.(check int) "misses counted" 3 (Tlb.misses tlb)

let test_tlb_flush_page () =
  let tlb = Tlb.create ~slots:16 () in
  Tlb.insert tlb ~vpn:5 ~ept:0 ~pt_gen:0 ~ept_gen:0 ~hfn:1 ~readable:true ~writable:false ~pkey:2;
  let info = Tlb.probe tlb ~vpn:5 ~ept:0 ~pt_gen:0 ~ept_gen:0 in
  Alcotest.(check int) "packed word of a write-protected pkey-2 entry"
    ((1 lsl 6) lor (2 lsl 2) lor 0b10)
    info;
  Alcotest.(check int) "hfn field" 1 (info lsr 6);
  Alcotest.(check int) "pkey field" 2 ((info lsr 2) land 0xF);
  Alcotest.(check bool) "readable bit" true (info land 2 <> 0);
  Alcotest.(check bool) "writable bit" false (info land 1 <> 0);
  Alcotest.(check int) "slot_info agrees" info
    (Tlb.slot_info tlb (Tlb.slot_index tlb ~vpn:5));
  Tlb.flush_page tlb ~vpn:5;
  Alcotest.(check int) "invlpg dropped it" (-1) (Tlb.probe tlb ~vpn:5 ~ept:0 ~pt_gen:0 ~ept_gen:0)

let test_tlb_rejects_bad_geometry () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Tlb.create: slots must be a positive power of two") (fun () ->
      ignore (Tlb.create ~slots:24 ()))

(* --- page table --- *)

let test_pagetable_generations () =
  let pt = Pagetable.create () in
  let g0 = Pagetable.generation pt in
  Pagetable.map pt ~vpn:1 ~frame:9 ~writable:true;
  Alcotest.(check bool) "map bumps" true (Pagetable.generation pt > g0);
  let g1 = Pagetable.generation pt in
  Pagetable.protect pt ~vpn:1 ~readable:true ~writable:false;
  Alcotest.(check bool) "protect bumps" true (Pagetable.generation pt > g1);
  Alcotest.(check int) "mapped count" 1 (Pagetable.mapped_count pt);
  Pagetable.unmap pt ~vpn:1;
  Alcotest.(check int) "unmapped" 0 (Pagetable.mapped_count pt)

let test_pagetable_radix_structure () =
  let phys = Physmem.create () in
  let pt = Pagetable.create ~phys () in
  Alcotest.(check int) "root only" 1 (Pagetable.table_frames pt);
  (* Two pages far apart force distinct intermediate tables. *)
  Pagetable.map pt ~vpn:0 ~frame:100 ~writable:true;
  Pagetable.map pt ~vpn:(1 lsl 35) ~frame:101 ~writable:false;
  Alcotest.(check bool) "intermediate tables allocated" true (Pagetable.table_frames pt >= 7);
  (match Pagetable.find pt ~vpn:(1 lsl 35) with
  | Some pte ->
    Alcotest.(check int) "far frame" 101 pte.Pagetable.frame;
    Alcotest.(check bool) "read-only" false pte.Pagetable.writable
  | None -> Alcotest.fail "far mapping lost");
  (* The root entry is a real in-memory word in the shared frame pool. *)
  let root_word = Physmem.read64 phys ~frame:(Pagetable.root_frame pt) ~off:0 in
  Alcotest.(check bool) "root entry present bit" true (root_word land 1 = 1)

let test_pagetable_iter_order_and_pkey_roundtrip () =
  let pt = Pagetable.create () in
  List.iter (fun vpn -> Pagetable.map pt ~vpn ~frame:vpn ~writable:true) [ 9; 2; 700; 100000 ];
  Pagetable.set_pkey pt ~vpn:700 ~key:11;
  let seen = ref [] in
  Pagetable.iter pt (fun vpn pte -> seen := (vpn, pte.Pagetable.pkey) :: !seen);
  Alcotest.(check (list (pair int int)))
    "ascending order with keys"
    [ (2, 0); (9, 0); (700, 11); (100000, 0) ]
    (List.rev !seen)

let test_pagetable_pkey_bounds () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:2 ~frame:1 ~writable:true;
  Pagetable.set_pkey pt ~vpn:2 ~key:15;
  Alcotest.check_raises "key 16 rejected"
    (Invalid_argument "Pagetable.set_pkey: key must be 0..15") (fun () ->
      Pagetable.set_pkey pt ~vpn:2 ~key:16);
  Alcotest.(check bool) "unmapped page raises" true
    (try
       Pagetable.set_pkey pt ~vpn:99 ~key:1;
       false
     with Not_found -> true)

(* --- physical memory --- *)

let test_physmem_roundtrip () =
  let pm = Physmem.create () in
  let f = Physmem.alloc_frame pm in
  Physmem.write64 pm ~frame:f ~off:128 0x1234_5678;
  Alcotest.(check int) "word round-trip" 0x1234_5678 (Physmem.read64 pm ~frame:f ~off:128);
  Physmem.write8 pm ~frame:f ~off:0 0xAB;
  Alcotest.(check int) "byte round-trip" 0xAB (Physmem.read8 pm ~frame:f ~off:0);
  let src = Bytes.of_string "..0123456789abcdef" in
  Physmem.write_block16_from pm ~frame:f ~off:64 ~src ~spos:2;
  let dst = Bytes.make 20 '-' in
  Physmem.read_block16_into pm ~frame:f ~off:64 ~dst ~dpos:3;
  Alcotest.(check bytes)
    "block round-trip" (Bytes.of_string "---0123456789abcdef-") dst;
  Alcotest.(check bool) "frames grow" true (Physmem.alloc_frame pm = f + 1)

let test_physmem_negative_values () =
  let pm = Physmem.create () in
  let f = Physmem.alloc_frame pm in
  Physmem.write64 pm ~frame:f ~off:0 (-42);
  Alcotest.(check int) "negative round-trip" (-42) (Physmem.read64 pm ~frame:f ~off:0)

let test_physmem_growth_preserves_contents () =
  (* The frame table starts at 64 slots and doubles on demand; growth
     must carry every live frame's contents across. 200 frames forces two
     doublings (64 -> 128 -> 256). *)
  let pm = Physmem.create () in
  let frames = Array.init 200 (fun _ -> Physmem.alloc_frame pm) in
  Array.iteri (fun k f -> Physmem.write64 pm ~frame:f ~off:8 (k * 17)) frames;
  Array.iteri
    (fun k f ->
      Alcotest.(check int)
        (Printf.sprintf "frame %d survives table growth" f)
        (k * 17)
        (Physmem.read64 pm ~frame:f ~off:8))
    frames;
  Alcotest.(check int) "frame_count tracks allocations" 200 (Physmem.frame_count pm)

let test_physmem_out_of_frames () =
  let pm = Physmem.create ~max_frames:3 () in
  Alcotest.(check int) "cap recorded" 3 (Physmem.max_frames pm);
  for _ = 1 to 3 do
    ignore (Physmem.alloc_frame pm)
  done;
  (match Physmem.alloc_frame pm with
  | _ -> Alcotest.fail "allocation past the cap must raise"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the condition: %s" msg)
      true
      (let re = "out of physical frames" in
       let rec contains i =
         i + String.length re <= String.length msg && (String.sub msg i (String.length re) = re || contains (i + 1))
       in
       contains 0));
  (* The failed allocation must not have corrupted the pool. *)
  Alcotest.(check int) "pool still holds its frames" 3 (Physmem.frame_count pm);
  Physmem.write64 pm ~frame:2 ~off:0 99;
  Alcotest.(check int) "live frames still usable" 99 (Physmem.read64 pm ~frame:2 ~off:0)

let test_physmem_rejects_bad_cap () =
  (match Physmem.create ~max_frames:0 () with
  | _ -> Alcotest.fail "zero cap must be rejected"
  | exception Invalid_argument _ -> ());
  match Physmem.create ~max_frames:(-4) () with
  | _ -> Alcotest.fail "negative cap must be rejected"
  | exception Invalid_argument _ -> ()

(* --- pipeline properties --- *)

(* One instruction, with absent registers spelled [Reg.pipe_none] and the
   default port occupancy. *)
let issue ?(s1 = Reg.pipe_none) ?(d1 = Reg.pipe_none) ?(lat = 1) ?(serialize = false) p ~port =
  Pipeline.issue p ~s1 ~s2:Reg.pipe_none ~d1 ~lat ~busy:1 ~serialize ~port

let test_pipeline_monotone () =
  let p = Pipeline.create () in
  let before = Pipeline.cycles p in
  issue p ~port:Pipeline.p_alu;
  Alcotest.(check bool) "cycles grow" true (Pipeline.cycles p >= before);
  Alcotest.(check int) "insn counted" 1 (Pipeline.instructions p)

let test_pipeline_serialize_orders () =
  let p = Pipeline.create () in
  (* A long-latency op, then a serializing op: the latter completes after. *)
  issue p ~d1:0 ~lat:100 ~port:Pipeline.p_load;
  issue p ~serialize:true ~lat:1 ~port:Pipeline.p_special;
  Alcotest.(check bool) "serializer waits for in-flight work" true (Pipeline.cycles p >= 101.0)

let test_pipeline_dep_floor () =
  let p = Pipeline.create () in
  let tick = Pipeline.ticks_per_cycle in
  issue p ~d1:0 ~lat:10 ~port:Pipeline.p_store;
  let t1 = Pipeline.completion p in
  Pipeline.set_dep p t1;
  issue p ~lat:4 ~port:Pipeline.p_load;
  Alcotest.(check int) "load completes 4 cycles after the floor" (t1 + (4 * tick))
    (Pipeline.completion p);
  (* The floor is gone: an independent load issues at its fetch slot
     (tick 2), long before [t1]. *)
  issue p ~lat:4 ~port:Pipeline.p_load;
  Alcotest.(check int) "floor consumed by one issue" (2 + (4 * tick))
    (Pipeline.completion p)

(* Eight independent 1-cycle ALU ops: fetch delivers four per cycle, so
   the eighth issues at fetch slot 7 (1.75 cycles) and completes at 2.75. *)
let test_pipeline_fetch_slot () =
  let p = Pipeline.create () in
  for _ = 1 to 8 do
    issue p ~port:Pipeline.p_alu
  done;
  Alcotest.check (Alcotest.float 0.0) "quarter-cycle fetch slots" 2.75 (Pipeline.cycles p);
  Alcotest.check (Alcotest.float 0.0) "accountant agrees" 2.75 (Pipeline.cycles_accounted p)

let test_pipeline_reset () =
  let p = Pipeline.create () in
  issue p ~d1:3 ~lat:50 ~port:Pipeline.p_alu;
  Pipeline.reset p;
  Alcotest.(check int) "instructions cleared" 0 (Pipeline.instructions p);
  Alcotest.check (Alcotest.float 0.0) "clock cleared" 0.0 (Pipeline.cycles p)

let prop_pipeline_more_work_never_faster =
  QCheck.Test.make ~name:"adding instructions never reduces cycles" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 3))
    (fun ops ->
      let run ops =
        let p = Pipeline.create () in
        List.iter
          (fun op ->
            match op with
            | 0 -> issue p ~s1:0 ~d1:0 ~port:Pipeline.p_alu
            | 1 -> issue p ~d1:1 ~lat:4 ~port:Pipeline.p_load
            | 2 -> issue p ~s1:1 ~port:Pipeline.p_store
            | _ -> issue p ~serialize:true ~lat:5 ~port:Pipeline.p_special)
          ops;
        Pipeline.cycles p
      in
      match ops with
      | [] -> true
      | _ :: shorter -> run ops >= run shorter)

(* --- tracer --- *)

let traced_cpu () =
  let cpu = Cpu.create () in
  Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~writable:true;
  let prog =
    Asm.parse_program
      "main:\n\
      \  mov rbx, 0x10000000\n\
      \  mov rcx, 5\n\
       loop:\n\
      \  mov [rbx], rcx\n\
      \  sub rcx, 1\n\
      \  jne loop\n\
      \  hlt\n"
  in
  Cpu.load_program cpu prog;
  cpu

let test_tracer_ring () =
  let cpu = traced_cpu () in
  let t = Tracer.attach ~capacity:4 cpu in
  ignore (Cpu.run cpu);
  Tracer.detach t;
  (* 2 setup + 5*(store,sub,jne) + hlt = 18 executed *)
  Alcotest.(check int) "total counted" 18 (Tracer.total t);
  let es = Tracer.entries t in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length es);
  (* Entries are consecutive and end at the final instruction. *)
  let seqs = List.map (fun e -> e.Tracer.seq) es in
  Alcotest.(check (list int)) "last four" [ 14; 15; 16; 17 ] seqs;
  Alcotest.(check bool) "last is hlt" true
    (match (List.nth es 3).Tracer.insn with Insn.Halt -> true | _ -> false)

let test_tracer_filter () =
  let cpu = traced_cpu () in
  let t = Tracer.attach ~filter:Insn.is_mem_write cpu in
  ignore (Cpu.run cpu);
  Alcotest.(check int) "only the five stores" 5 (Tracer.total t);
  Alcotest.(check bool) "renders" true (String.length (Tracer.to_string t) > 0)

let test_tracer_coexists () =
  (* Tracing must not displace other step hooks (or another tracer): all
     observers see the full stream, and detaching one leaves the rest. *)
  let cpu = traced_cpu () in
  let steps = ref 0 in
  let id = Cpu.add_step_hook cpu (fun _ _ -> incr steps) in
  let t1 = Tracer.attach cpu in
  let t2 = Tracer.attach ~filter:Insn.is_mem_write cpu in
  ignore (Cpu.run cpu);
  Alcotest.(check int) "analysis hook saw every step" 18 !steps;
  Alcotest.(check int) "first tracer saw every step" 18 (Tracer.total t1);
  Alcotest.(check int) "filtered tracer saw the stores" 5 (Tracer.total t2);
  Tracer.detach t1;
  Cpu.remove_step_hook cpu id;
  Alcotest.(check int) "detach is selective" 1 cpu.Cpu.n_step_hooks

(* --- perf report --- *)

let test_perf_report () =
  let cpu = Cpu.create () in
  Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~writable:true;
  let prog =
    Asm.parse_program
      "main:\n\
      \  mov rbx, 0x10000000\n\
      \  mov rax, [rbx]\n\
      \  mov [rbx+8], rax\n\
      \  hlt\n"
  in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  let r = Perf_report.capture cpu in
  Alcotest.(check int) "loads" 1 r.Perf_report.loads;
  Alcotest.(check int) "stores" 1 r.Perf_report.stores;
  Alcotest.(check bool) "ipc positive" true (r.Perf_report.ipc > 0.0);
  Alcotest.(check bool) "renders" true (String.length (Perf_report.to_string r) > 100)

let suite =
  [
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_within_set;
    Alcotest.test_case "cache level degradation" `Quick test_cache_levels_degrade;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "tlb generation invalidation" `Quick test_tlb_generation_invalidation;
    Alcotest.test_case "tlb invlpg" `Quick test_tlb_flush_page;
    Alcotest.test_case "tlb geometry" `Quick test_tlb_rejects_bad_geometry;
    Alcotest.test_case "pagetable generations" `Quick test_pagetable_generations;
    Alcotest.test_case "pagetable radix structure" `Quick test_pagetable_radix_structure;
    Alcotest.test_case "pagetable iter order + pkey" `Quick
      test_pagetable_iter_order_and_pkey_roundtrip;
    Alcotest.test_case "pagetable pkey bounds" `Quick test_pagetable_pkey_bounds;
    Alcotest.test_case "physmem round-trips" `Quick test_physmem_roundtrip;
    Alcotest.test_case "physmem negative values" `Quick test_physmem_negative_values;
    Alcotest.test_case "physmem table growth preserves contents" `Quick
      test_physmem_growth_preserves_contents;
    Alcotest.test_case "physmem out-of-frames diagnosis" `Quick test_physmem_out_of_frames;
    Alcotest.test_case "physmem rejects bad cap" `Quick test_physmem_rejects_bad_cap;
    Alcotest.test_case "pipeline monotone" `Quick test_pipeline_monotone;
    Alcotest.test_case "pipeline serialize" `Quick test_pipeline_serialize_orders;
    Alcotest.test_case "pipeline dep floor" `Quick test_pipeline_dep_floor;
    Alcotest.test_case "pipeline fetch slot is a quarter cycle" `Quick test_pipeline_fetch_slot;
    Alcotest.test_case "pipeline reset" `Quick test_pipeline_reset;
    QCheck_alcotest.to_alcotest prop_pipeline_more_work_never_faster;
    Alcotest.test_case "perf report" `Quick test_perf_report;
    Alcotest.test_case "tracer ring buffer" `Quick test_tracer_ring;
    Alcotest.test_case "tracer filter" `Quick test_tracer_filter;
    Alcotest.test_case "tracer coexists with hooks" `Quick test_tracer_coexists;
  ]
