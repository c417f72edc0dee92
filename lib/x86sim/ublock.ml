type uop =
  | Unop of { meta : int }
  | Umov_rr of { d : int; s : int; meta : int }
  | Umov_ri of { d : int; imm : int; meta : int }
  | Uload_bd of { d : int; base : int; disp : int; meta : int }
  | Uload_gen of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ustore_bd of { s : int; base : int; disp : int; meta : int }
  | Ustore_gen of { s : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ustorei_bd of { imm : int; base : int; disp : int; meta : int }
  | Ustorei_gen of { imm : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ulea of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ulea32 of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ualu_rr of { op : Insn.alu; d : int; s : int; meta : int }
  | Ualu_ri of { op : Insn.alu; d : int; imm : int; meta : int }
  | Ucmp_rr of { a : int; b : int; meta : int }
  | Ucmp_ri of { a : int; imm : int; meta : int }
  | Utest_rr of { a : int; b : int; meta : int }
  | Upush of { s : int }
  | Upop of { d : int }
  | Ubnd_set of { b : int; lo : int; hi : int; meta : int }
  | Ubndc of { upper : bool; b : int; r : int; meta : int }
  | Ubndmov_store of { b : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ubndmov_load of { b : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Urdpkru of { meta : int }
  | Umovdqa_load of { x : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Umovdqa_store of { x : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Umovq_xr of { x : int; r : int; meta : int }
  | Umovq_rx of { r : int; x : int; meta : int }
  | Uxmm_xor of { d : int; s : int; meta : int }
  | Uaes of { f : Bytes.t -> dst:int -> src:int -> unit; d : int; s : int }
  | Uaeskeygen of { d : int; s : int; imm : int; meta : int }
  | Uaesimc of { d : int; s : int }
  | Uvext_high of { d : int; s : int; meta : int }
  | Uvins_high of { d : int; s : int; meta : int }
  (* Retired shapes of the deleted trace-lane optimizer, kept only because
     bench/perf/replay.ml still matches their names and fields. Nothing
     constructs them; [Cpu.exec_uop] rejects them. *)
  | Ualu_rr_nf of { meta : int }
  | Ualu_ri_nf of { meta : int }
  | Uload_bd_c of { meta : int }
  | Uload_gen_c of { meta : int }
  | Ustore_bd_c of { meta : int }
  | Ustore_gen_c of { meta : int }
  | Ustorei_bd_c of { meta : int }
  | Ustorei_gen_c of { meta : int }
  | Ufuse_mask_load of { m2 : int }
  | Ufuse_mask_store of { m2 : int }
  | Ufuse_mask_storei of { m2 : int }
  | Ufuse_lea_bndc of { m1 : int; m2 : int }

type terminator =
  | Term_halt
  | Term_jmp of { target : int }
  | Term_jcc of { cond : Insn.cond; target : int }
  | Term_call of { target : int }
  | Term_call_r of { r : int }
  | Term_jmp_r of { r : int }
  | Term_ret
  | Term_exec of Insn.t
  | Term_fall_off

type block = {
  entry : int;
  uops : uop array;
  term : terminator;
  term_idx : int;
  bgen : int;
  mutable succ_taken : block;
  mutable succ_fall : block;
  mutable exec_count : int;
  mutable taken_count : int;
  mutable fall_count : int;
  mutable dyn_target : int;
  mutable dyn_votes : int;
  mutable dyn_total : int;
}

type op = Op_uop of uop | Op_term of terminator

type cache = {
  program : Program.t;
  code : Insn.t array;
  blocks : block array;  (* indexed by entry; dummy_block = not compiled *)
  mutable ops : op array;
      (* per-instruction translations for the hooked path, indexed by rip
         ([no_op] = not decoded); [||] until first used and after each
         [invalidate] *)
  mutable gen : int;
  mutable compile_count : int;
  mutable invalidation_count : int;
}

let rec dummy_block =
  {
    entry = -1;
    uops = [||];
    term = Term_fall_off;
    term_idx = -1;
    bgen = -1;
    succ_taken = dummy_block;
    succ_fall = dummy_block;
    exec_count = 0;
    taken_count = 0;
    fall_count = 0;
    dyn_target = -1;
    dyn_votes = 0;
    dyn_total = 0;
  }

let create program =
  {
    program;
    code = Program.code program;
    blocks = Array.make (Program.length program) dummy_block;
    ops = [||];
    gen = 0;
    compile_count = 0;
    invalidation_count = 0;
  }

let owns cache program = cache.program == program
let code_length cache = Array.length cache.code
let generation cache = cache.gen

let invalidate cache =
  cache.gen <- cache.gen + 1;
  cache.invalidation_count <- cache.invalidation_count + 1;
  (* Nothing outside the cache points into the per-instruction memo, so
     dropping it is all its invalidation takes. *)
  cache.ops <- [||]

(* The cached block at [entry] without compiling: [None] when the slot is
   empty or holds a stale generation. Introspection for tests and
   reports; the execution path uses [get]. *)
let peek cache entry =
  if entry < 0 || entry >= Array.length cache.blocks then None
  else
    let b = cache.blocks.(entry) in
    if b != dummy_block && b.bgen = cache.gen then Some b else None

let compiles cache = cache.compile_count
let invalidations cache = cache.invalidation_count

(* ------------------------------------------------------------------ *)
(* Fast-path profile counters                                          *)
(* ------------------------------------------------------------------ *)

(* Saturating increment: profile counters must never wrap into garbage on
   arbitrarily long runs, and the compare is one predictable branch per
   block entry/exit (not per instruction). *)
let[@inline] bump c = if c = max_int then c else c + 1

(* Indirect-edge inline cache, Boyer–Moore majority vote: [dyn_target]
   holds the current majority candidate with [dyn_votes] excess votes,
   [dyn_total] every indirect exit. One compare + one store per indirect
   branch, no per-target table — and if one target dominates (the common
   monomorphic case: returns to a single caller, one hot jump table slot)
   it provably survives as the candidate, which is what [report]'s
   hot-edge table shows. *)
let note_dyn (b : block) target =
  b.dyn_total <- bump b.dyn_total;
  if b.dyn_votes = 0 then begin
    b.dyn_target <- target;
    b.dyn_votes <- 1
  end
  else if b.dyn_target = target then b.dyn_votes <- bump b.dyn_votes
  else b.dyn_votes <- b.dyn_votes - 1

type stat = {
  s_entry : int;
  s_insns : int;
  s_exec : int;
  s_taken : int;
  s_fall : int;
  s_taken_target : int;
  s_fall_target : int;
  s_dyn_target : int;
  s_dyn_votes : int;
  s_dyn_total : int;
}

let stat_of (b : block) =
  let taken_target, fall_target =
    match b.term with
    | Term_jmp { target } | Term_call { target } -> (target, -1)
    | Term_jcc { target; _ } -> (target, b.term_idx + 1)
    | Term_halt | Term_call_r _ | Term_jmp_r _ | Term_ret | Term_exec _ | Term_fall_off ->
      (-1, -1)
  in
  {
    s_entry = b.entry;
    s_insns = Array.length b.uops + (match b.term with Term_fall_off -> 0 | _ -> 1);
    s_exec = b.exec_count;
    s_taken = b.taken_count;
    s_fall = b.fall_count;
    s_taken_target = taken_target;
    s_fall_target = fall_target;
    s_dyn_target = b.dyn_target;
    s_dyn_votes = b.dyn_votes;
    s_dyn_total = b.dyn_total;
  }

(* Every block that executed at least once, in entry order. Stale-
   generation blocks are included until their slot is recompiled: the
   profile describes what ran, not what is currently cached. *)
let stats cache =
  let acc = ref [] in
  for i = Array.length cache.blocks - 1 downto 0 do
    let b = cache.blocks.(i) in
    if b != dummy_block && b.exec_count > 0 then acc := stat_of b :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The translator                                                      *)
(* ------------------------------------------------------------------ *)

let nr = Reg.pipe_none

(* Pipeline source ids of a memory operand, exactly as [Cpu.mem_src1/2]. *)
let msrc1 (m : Insn.mem) = if m.base >= 0 then Reg.pipe_gpr m.base else nr
let msrc2 (m : Insn.mem) = if m.index >= 0 then Reg.pipe_gpr m.index else nr

let alu_lat (op : Insn.alu) = match op with Insn.Imul -> 3 | _ -> 1

(* Issue metadata for the common shapes: the one place each instruction's
   source/destination registers, latency and port are written down. Both
   execution loops issue these words ([Cpu.exec_uop]). *)
let m_alu0 = Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:0 ~port:Pipeline.p_alu

let m_load (m : Insn.mem) d1 =
  (* Latency is dynamic (left by the MMU); the packed lat field is unused. *)
  Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1 ~d2:nr ~lat:0 ~port:Pipeline.p_load

let m_store (m : Insn.mem) s3 =
  Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3 ~d1:nr ~d2:nr ~lat:1 ~port:Pipeline.p_store

(* Whether a memory operand is the flattened base+displacement shape. *)
let is_bd (m : Insn.mem) = m.base >= 0 && m.index < 0

let uop_of (insn : Insn.t) : uop =
  match insn with
  | Insn.Nop -> Unop { meta = m_alu0 }
  | Insn.Mov_rr (d, s) ->
    Umov_rr
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Mov_ri (d, imm) ->
    Umov_ri
      {
        d;
        imm;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Mov_label (d, tgt) ->
    (* Targets are resolved at assembly; predecode freezes the index. *)
    Umov_ri
      {
        d;
        imm = tgt.Insn.tidx;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Load (d, m) ->
    let meta = m_load m (Reg.pipe_gpr d) in
    if is_bd m then Uload_bd { d; base = m.base; disp = m.disp; meta }
    else Uload_gen { d; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Store (m, s) ->
    let meta = m_store m (Reg.pipe_gpr s) in
    if is_bd m then Ustore_bd { s; base = m.base; disp = m.disp; meta }
    else Ustore_gen { s; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Store_i (m, imm) ->
    let meta = m_store m nr in
    if is_bd m then Ustorei_bd { imm; base = m.base; disp = m.disp; meta }
    else
      Ustorei_gen { imm; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Lea (d, m) ->
    Ulea
      {
        d;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta =
          Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Lea32 (d, m) ->
    Ulea32
      {
        d;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta =
          Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Alu_rr (op, d, s) ->
    Ualu_rr
      {
        op;
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr d) ~s2:(Reg.pipe_gpr s) ~s3:nr
            ~d1:(Reg.pipe_gpr d) ~d2:Reg.pipe_flags ~lat:(alu_lat op) ~port:Pipeline.p_alu;
      }
  | Insn.Alu_ri (op, d, imm) ->
    Ualu_ri
      {
        op;
        d;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr d) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d)
            ~d2:Reg.pipe_flags ~lat:(alu_lat op) ~port:Pipeline.p_alu;
      }
  | Insn.Cmp_rr (a, b) ->
    Ucmp_rr
      {
        a;
        b;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:(Reg.pipe_gpr b) ~s3:nr ~d1:Reg.pipe_flags
            ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Cmp_ri (a, imm) ->
    Ucmp_ri
      {
        a;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:nr ~s3:nr ~d1:Reg.pipe_flags ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Test_rr (a, b) ->
    Utest_rr
      {
        a;
        b;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:(Reg.pipe_gpr b) ~s3:nr ~d1:Reg.pipe_flags
            ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Push r -> Upush { s = r }
  | Insn.Pop r -> Upop { d = r }
  | Insn.Bnd_set (b, lo, hi) ->
    Ubnd_set
      {
        b;
        lo;
        hi;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_bnd b) ~d2:nr ~lat:1
            ~port:Pipeline.p_mpx;
      }
  | Insn.Bndcu (b, r) ->
    Ubndc
      {
        upper = true;
        b;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:(Reg.pipe_bnd b) ~s3:nr ~d1:nr ~d2:nr
            ~lat:1 ~port:Pipeline.p_mpx;
      }
  | Insn.Bndcl (b, r) ->
    Ubndc
      {
        upper = false;
        b;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:(Reg.pipe_bnd b) ~s3:nr ~d1:nr ~d2:nr
            ~lat:1 ~port:Pipeline.p_mpx;
      }
  | Insn.Bndmov_store (m, b) ->
    Ubndmov_store
      {
        b;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_store m (Reg.pipe_bnd b);
      }
  | Insn.Bndmov_load (b, m) ->
    Ubndmov_load
      {
        b;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_load m (Reg.pipe_bnd b);
      }
  | Insn.Rdpkru ->
    Urdpkru
      {
        meta =
          Pipeline.pack ~s1:Reg.pipe_pkru ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr Reg.rax) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Movdqa_load (x, m) ->
    Umovdqa_load
      {
        x;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_load m (Reg.pipe_xmm x);
      }
  | Insn.Movdqa_store (m, x) ->
    Umovdqa_store
      {
        x;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_store m (Reg.pipe_xmm x);
      }
  | Insn.Movq_xr (x, r) ->
    Umovq_xr
      {
        x;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm x) ~d2:nr
            ~lat:2 ~port:Pipeline.p_alu;
      }
  | Insn.Movq_rx (r, x) ->
    Umovq_rx
      {
        r;
        x;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm x) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr r) ~d2:nr
            ~lat:2 ~port:Pipeline.p_alu;
      }
  | Insn.Pxor (d, s) ->
    Uxmm_xor
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Fp_arith (d, s) ->
    Uxmm_xor
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:4 ~port:Pipeline.p_fp;
      }
  | Insn.Aesenc (d, s) -> Uaes { f = Aesni.Aes.aesenc_into; d; s }
  | Insn.Aesenclast (d, s) -> Uaes { f = Aesni.Aes.aesenclast_into; d; s }
  | Insn.Aesdec (d, s) -> Uaes { f = Aesni.Aes.aesdec_into; d; s }
  | Insn.Aesdeclast (d, s) -> Uaes { f = Aesni.Aes.aesdeclast_into; d; s }
  | Insn.Aeskeygenassist (d, s, imm) ->
    Uaeskeygen
      {
        d;
        s;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm d) ~d2:nr
            ~lat:12 ~port:Pipeline.p_aes;
      }
  | Insn.Aesimc (d, s) -> Uaesimc { d; s }
  | Insn.Vext_high (d, s) ->
    Uvext_high
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm d) ~d2:nr
            ~lat:3 ~port:Pipeline.p_special;
      }
  | Insn.Vins_high (d, s) ->
    Uvins_high
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:(Reg.pipe_xmm d) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:3 ~port:Pipeline.p_special;
      }
  | Insn.Halt | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_r _ | Insn.Call _ | Insn.Call_r _
  | Insn.Ret | Insn.Syscall | Insn.Mfence | Insn.Cpuid | Insn.Wrpkru | Insn.Vmfunc
  | Insn.Vmcall ->
    (* Terminators; [terminator_of] handles them. *)
    assert false

let is_terminator (insn : Insn.t) =
  match insn with
  | Insn.Halt | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_r _ | Insn.Call _ | Insn.Call_r _
  | Insn.Ret | Insn.Syscall | Insn.Mfence | Insn.Cpuid | Insn.Wrpkru | Insn.Vmfunc
  | Insn.Vmcall -> true
  | _ -> false

let terminator_of (insn : Insn.t) : terminator =
  match insn with
  | Insn.Halt -> Term_halt
  | Insn.Jmp tgt -> Term_jmp { target = tgt.Insn.tidx }
  | Insn.Jcc (cond, tgt) -> Term_jcc { cond; target = tgt.Insn.tidx }
  | Insn.Call tgt -> Term_call { target = tgt.Insn.tidx }
  | Insn.Call_r r -> Term_call_r { r }
  | Insn.Jmp_r r -> Term_jmp_r { r }
  | Insn.Ret -> Term_ret
  | Insn.Syscall | Insn.Mfence | Insn.Cpuid | Insn.Wrpkru | Insn.Vmfunc | Insn.Vmcall ->
    (* Serializing/handler instructions: executed by [Cpu.exec], and the
       chain must end because their handlers may attach hooks or swap the
       program. *)
    Term_exec insn
  | _ -> assert false

let compile cache entry =
  let code = cache.code in
  let len = Array.length code in
  (* Straight-line extent: [entry, stop) are uops, [stop] the terminator. *)
  let stop = ref entry in
  while !stop < len && not (is_terminator code.(!stop)) do
    incr stop
  done;
  let n = !stop - entry in
  cache.compile_count <- cache.compile_count + 1;
  {
    entry;
    uops = Array.init n (fun i -> uop_of code.(entry + i));
    term = (if !stop < len then terminator_of code.(!stop) else Term_fall_off);
    term_idx = !stop;
    bgen = cache.gen;
    succ_taken = dummy_block;
    succ_fall = dummy_block;
    exec_count = 0;
    taken_count = 0;
    fall_count = 0;
    dyn_target = -1;
    dyn_votes = 0;
    dyn_total = 0;
  }

let get cache entry =
  let b = cache.blocks.(entry) in
  if b != dummy_block && b.bgen = cache.gen then b
  else begin
    let b = compile cache entry in
    cache.blocks.(entry) <- b;
    b
  end

let no_op = Op_term Term_fall_off

(* The memo array is allocated on first use, so a program that only ever
   runs on the fast path pays nothing for it. *)
let decode_op cache rip =
  if Array.length cache.ops = 0 then cache.ops <- Array.make (Array.length cache.code) no_op;
  let insn = cache.code.(rip) in
  let o = if is_terminator insn then Op_term (terminator_of insn) else Op_uop (uop_of insn) in
  cache.ops.(rip) <- o;
  o

(* The hit path is inlined into [Cpu.step]. *)
let[@inline] op cache rip =
  let ops = cache.ops in
  if rip >= 0 && rip < Array.length ops && Array.unsafe_get ops rip != no_op then
    Array.unsafe_get ops rip
  else decode_op cache rip
