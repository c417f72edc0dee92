(* Trace-lane uop optimizer: rewrites a formed trace's flat uop segments
   before install, so the trace tier's steady-state loop dispatches fewer,
   fatter uops. Four cooperating, individually-legal rewrites:

   - macro-fusion of adjacent dependent pairs (cmp/test feeding the jcc
     exit, the SFI and-mask feeding its own access, lea feeding an MPX
     bound check);
   - inline translation slots on every 64-bit load/store uop, keyed on the
     {!Mmu.generation_token} contract;
   - dead-flag elimination on ALU uops whose flag result is provably
     overwritten before any observation point;
   - (enabling the above) segment shapes the executor can run with lazy
     rip materialization — no per-uop rip re-arm; the fault handler
     reconstructs the architectural rip from the issue delta.

   Everything here is observationally identical to the unoptimized
   segment: same architectural state, same fault points and faulting-rip
   values, same pipeline issues in the same order, same TLB/cache
   statistics. The fusion-on/off three-tier differential sweeps pin that.

   Layering: this module is {e below} [Trace] ([Trace.try_form] calls it),
   so it speaks only in uop arrays plus per-segment exit-shape booleans —
   it never sees [Trace.seg] or [exit_kind]. *)

type oseg = {
  os_uops : Ublock.uop array;
  os_flags : Ublock.uop option;
  os_m : int;
  os_pend : int;
}

type result = {
  r_segs : oseg array;
  r_slots : int;
  r_fused : int;
  r_nf : int;
}

(* Whether [u] can raise a fault (or, more broadly, has an observation
   point where architectural state — including [cmp] — becomes visible
   mid-segment). Conservative: anything not provably pure is capable.
   Memory uops fault on translation/permission, push/pop on the stack
   access, bndc raises Bound_violation. The optimizer's own shapes are
   listed capable too for totality, though its input never contains
   them. *)
let can_fault (u : Ublock.uop) =
  match u with
  | Ublock.Unop _ | Ublock.Umov_rr _ | Ublock.Umov_ri _ | Ublock.Ulea _ | Ublock.Ulea32 _
  | Ublock.Ualu_rr _ | Ublock.Ualu_ri _ | Ublock.Ualu_rr_nf _ | Ublock.Ualu_ri_nf _
  | Ublock.Ucmp_rr _ | Ublock.Ucmp_ri _ | Ublock.Utest_rr _ | Ublock.Ubnd_set _
  | Ublock.Umovq_xr _ | Ublock.Umovq_rx _ | Ublock.Uxmm_xor _ | Ublock.Uaes _
  | Ublock.Uaeskeygen _ | Ublock.Uaesimc _ | Ublock.Uvext_high _ | Ublock.Uvins_high _ ->
    false
  | _ -> true

(* Whether [u] unconditionally overwrites the flag register ([Cpu.t.cmp]).
   The [_nf] and [nf]-marked shapes do not write, but they only appear in
   already-optimized bodies, never in this module's input. *)
let writes_flags (u : Ublock.uop) =
  match u with
  | Ublock.Ualu_rr _ | Ublock.Ualu_ri _ | Ublock.Ucmp_rr _ | Ublock.Ucmp_ri _
  | Ublock.Utest_rr _ -> true
  | Ublock.Ufuse_mask_load { nf; _ }
  | Ublock.Ufuse_mask_store { nf; _ }
  | Ublock.Ufuse_mask_storei { nf; _ } -> not nf
  | _ -> false

(* Whether [u] writes general register [r], counting the optimizer
   shapes and the implicit rsp updates of push/pop — the dead-flag pend
   check needs the register to be byte-stable to the end of the segment,
   so implicit writes count. *)
let writes_gpr (u : Ublock.uop) r =
  match u with
  | Ublock.Umov_rr { d; _ }
  | Ublock.Umov_ri { d; _ }
  | Ublock.Uload_bd { d; _ }
  | Ublock.Uload_gen { d; _ }
  | Ublock.Uload_bd_c { d; _ }
  | Ublock.Uload_gen_c { d; _ }
  | Ublock.Ulea { d; _ }
  | Ublock.Ulea32 { d; _ }
  | Ublock.Ualu_rr { d; _ }
  | Ublock.Ualu_ri { d; _ }
  | Ublock.Ualu_rr_nf { d; _ }
  | Ublock.Ualu_ri_nf { d; _ }
  | Ublock.Ufuse_mask_store { d; _ }
  | Ublock.Ufuse_mask_storei { d; _ }
  | Ublock.Ufuse_lea_bndc { d; _ }
  | Ublock.Umovq_rx { r = d; _ } -> d = r
  | Ublock.Ufuse_mask_load { d; ld; _ } -> d = r || ld = r
  | Ublock.Upop { d } -> d = r || r = Reg.rsp
  | Ublock.Upush _ -> r = Reg.rsp
  | Ublock.Urdpkru _ -> r = Reg.rax
  | _ -> false

(* Dead-flag marking for one segment body. [nf.(i)] is set for an ALU uop
   whose flag write is provably never observed: a later uop in the same
   segment unconditionally overwrites the flags, with no fault-capable uop
   (= no mid-segment observation point) strictly in between. When the scan
   runs off the end of the segment without meeting either, the write may
   still be dead {e across} the segment boundary — but only over an
   unconditional-jump exit (a side exit would leave the trace with stale
   flags), and only when the successor segment's {e first} uop overwrites
   the flags (so zero-or-all: either the successor body never starts and
   the executor re-materializes the flags from the register file, or its
   first — necessarily non-faulting — uop makes the elision invisible).
   That re-materialization is what [os_pend] requests: the destination
   register of the elided ALU, whose value must therefore be stable from
   the elision point to the end of the segment.

   Marks compose: if i's overwriter k is itself later elided, k's own
   legality extends the fault-free window to k's overwriter, so by
   induction the first {e executed} write still precedes any observation
   of i's value. *)
let mark_dead_flags ~body ~exit_jmp_here ~succ_body =
  let n = Array.length body in
  let nf = Array.make n false in
  let pend = ref (-1) in
  for i = 0 to n - 1 do
    match body.(i) with
    | Ublock.Ualu_rr { d; _ } | Ublock.Ualu_ri { d; _ } ->
      let rec scan k =
        if k >= n then -2 (* clean run-off: cross-boundary candidate *)
        else if writes_flags body.(k) then k
        else if can_fault body.(k) then -1 (* observation point first *)
        else scan (k + 1)
      in
      let k = scan (i + 1) in
      if k >= 0 then nf.(i) <- true
      else if k = -2 && exit_jmp_here then begin
        match succ_body with
        | Some (sb : Ublock.uop array) when Array.length sb > 0 && writes_flags sb.(0) ->
          let stable = ref true in
          for j = i + 1 to n - 1 do
            if writes_gpr body.(j) d then stable := false
          done;
          if !stable then begin
            nf.(i) <- true;
            pend := d
          end
        | _ -> ()
      end
    | _ -> ()
  done;
  (nf, !pend)

(* The rewrite proper for one segment: consume the dead-flag marks, fuse
   adjacent pairs (greedy, non-overlapping, left to right), and attach an
   inline translation slot to every 64-bit memory uop. [slots] is the
   trace-wide slot counter (each static uop site gets its own slot). *)
let rewrite_body ~body ~nf ~slots ~fused ~nfc =
  let n = Array.length body in
  (* Build into a pre-sized scratch array (output never exceeds input —
     fusion only shrinks it) and trim once: formation runs inside the
     timed phase of every speed measurement, and the list-cons/reverse
     idiom here showed up as the dominant allocation of the whole
     benchmark (tens of words per rewritten uop). *)
  let out = Array.make (max n 1) (Ublock.Unop { meta = 0 }) in
  let k = ref 0 in
  let emit u =
    Array.unsafe_set out !k u;
    incr k
  in
  let fresh_slot () =
    let s = !slots in
    slots := s + 1;
    s
  in
  let i = ref 0 in
  while !i < n do
    let u = body.(!i) in
    let nxt = if !i + 1 < n then Some body.(!i + 1) else None in
    (match (u, nxt) with
    (* SFI mask-then-access: alu_ri writing the base of the very next
       base+disp access. The fused uop re-uses the just-computed value as
       the address, saving the register re-read and a dispatch. *)
    | Ublock.Ualu_ri { op; d; imm; meta = m1 },
      Some (Ublock.Uload_bd { d = ld; base; disp; meta = m2 })
      when base = d ->
      incr fused;
      if nf.(!i) then incr nfc;
      emit
        (Ublock.Ufuse_mask_load
           { op; d; imm; nf = nf.(!i); m1; ld; disp; slot = fresh_slot (); m2 });
      i := !i + 2
    | Ublock.Ualu_ri { op; d; imm; meta = m1 },
      Some (Ublock.Ustore_bd { s; base; disp; meta = m2 })
      when base = d ->
      incr fused;
      if nf.(!i) then incr nfc;
      emit
        (Ublock.Ufuse_mask_store
           { op; d; imm; nf = nf.(!i); m1; s; disp; slot = fresh_slot (); m2 });
      i := !i + 2
    | Ublock.Ualu_ri { op; d; imm; meta = m1 },
      Some (Ublock.Ustorei_bd { imm = simm; base; disp; meta = m2 })
      when base = d ->
      incr fused;
      if nf.(!i) then incr nfc;
      emit
        (Ublock.Ufuse_mask_storei
           { op; d; imm; nf = nf.(!i); m1; simm; disp; slot = fresh_slot (); m2 });
      i := !i + 2
    (* MPX gate: lea computing exactly the value the adjacent bound check
       tests. Both issues become one packed pair; the fault point stays
       after both, as in the unfused [Ubndc]. *)
    | Ublock.Ulea { d; base; index; scale; disp; meta = m1 },
      Some (Ublock.Ubndc { upper; b; r; meta = m2 })
      when r = d ->
      incr fused;
      emit
        (Ublock.Ufuse_lea_bndc
           { d; base; index; scale; disp; w32 = false; m1; upper; b; m2 });
      i := !i + 2
    | Ublock.Ulea32 { d; base; index; scale; disp; meta = m1 },
      Some (Ublock.Ubndc { upper; b; r; meta = m2 })
      when r = d ->
      incr fused;
      emit
        (Ublock.Ufuse_lea_bndc { d; base; index; scale; disp; w32 = true; m1; upper; b; m2 });
      i := !i + 2
    | Ublock.Ualu_rr { op; d; s; meta }, _ when nf.(!i) ->
      incr nfc;
      emit (Ublock.Ualu_rr_nf { op; d; s; meta });
      incr i
    | Ublock.Ualu_ri { op; d; imm; meta }, _ when nf.(!i) ->
      incr nfc;
      emit (Ublock.Ualu_ri_nf { op; d; imm; meta });
      incr i
    | Ublock.Uload_bd { d; base; disp; meta }, _ ->
      emit (Ublock.Uload_bd_c { d; base; disp; slot = fresh_slot (); meta });
      incr i
    | Ublock.Uload_gen { d; base; index; scale; disp; meta }, _ ->
      emit (Ublock.Uload_gen_c { d; base; index; scale; disp; slot = fresh_slot (); meta });
      incr i
    | Ublock.Ustore_bd { s; base; disp; meta }, _ ->
      emit (Ublock.Ustore_bd_c { s; base; disp; slot = fresh_slot (); meta });
      incr i
    | Ublock.Ustore_gen { s; base; index; scale; disp; meta }, _ ->
      emit (Ublock.Ustore_gen_c { s; base; index; scale; disp; slot = fresh_slot (); meta });
      incr i
    | Ublock.Ustorei_bd { imm; base; disp; meta }, _ ->
      emit (Ublock.Ustorei_bd_c { imm; base; disp; slot = fresh_slot (); meta });
      incr i
    | Ublock.Ustorei_gen { imm; base; index; scale; disp; meta }, _ ->
      emit (Ublock.Ustorei_gen_c { imm; base; index; scale; disp; slot = fresh_slot (); meta });
      incr i
    | u, _ ->
      emit u;
      incr i)
  done;
  (* [out] has one slot even for an empty body (a segment that is just
     its terminator); compare against its length, or that placeholder
     would run as a phantom nop issue. *)
  if !k = Array.length out then out else Array.sub out 0 !k

(* Whether the trailing uop is a pure flag producer the jcc exit consumes
   directly — the cmp/test+jcc macro-fusion. The producer moves to the
   executor's exit stage (still before the condition is evaluated and
   before any exit is taken, so ordering and the architectural [cmp] store
   are unchanged); what fusion buys is that the body loop ends one uop
   earlier and the exit stage can consume the freshly-computed value. *)
let flag_producer (u : Ublock.uop) =
  match u with Ublock.Ucmp_rr _ | Ublock.Ucmp_ri _ | Ublock.Utest_rr _ -> true | _ -> false

let optimize ~(bodies : Ublock.uop array array) ~(exit_jcc : bool array)
    ~(exit_jmp : bool array) ~loops : result =
  let nsegs = Array.length bodies in
  let slots = ref 0 and fused = ref 0 and nfc = ref 0 in
  let segs =
    Array.init nsegs (fun s ->
      let body = bodies.(s) in
      let m = Array.length body in
      let succ =
        if s < nsegs - 1 then Some bodies.(s + 1)
        else if loops then Some bodies.(0)
        else None
      in
      let nf, pend = mark_dead_flags ~body ~exit_jmp_here:exit_jmp.(s) ~succ_body:succ in
      (* cmp/test+jcc fusion: split the trailing flag producer off into
         the exit stage. *)
      let body, flags =
        if m > 0 && exit_jcc.(s) && flag_producer body.(m - 1) then begin
          incr fused;
          (Array.sub body 0 (m - 1), Some body.(m - 1))
        end
        else (body, None)
      in
      let uops = rewrite_body ~body ~nf ~slots ~fused ~nfc in
      { os_uops = uops; os_flags = flags; os_m = m; os_pend = pend })
  in
  { r_segs = segs; r_slots = !slots; r_fused = !fused; r_nf = !nfc }
