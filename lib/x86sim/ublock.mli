(** Predecoded basic-block translation cache.

    [Cpu.run]'s no-hook fast loop used to re-fetch an {!Insn.t} and walk
    the full constructor match on every step, re-resolving operands,
    pipeline ports and memory-op shape that are static for the lifetime of
    a program. This module is the classic interpreter → threaded-code
    step: each basic block of a {!Program.t} is compiled once into a flat
    array of {!uop} micro-ops — operands resolved to register ids, issue
    metadata ({!Pipeline.pack}ed register ids/port/latency) precomputed,
    memory-op shape flattened into [base+disp] vs general addressing — and
    the CPU executes cached blocks by direct array dispatch.

    Structure:
    - {b Keying}: blocks are keyed by entry instruction index in a
      per-program array ([blocks]); jumping into the middle of an existing
      block simply compiles a new (overlapping) block at that entry —
      translations are pure functions of the code array, so overlap is
      harmless.
    - {b Chaining}: a block ends at its terminator (branch, call, ret,
      halt, or a serializing instruction whose handler must run).
      Static terminators cache direct links to their
      successor blocks ([succ_taken]/[succ_fall]), so steady-state
      execution follows block→block pointers without re-looking-up the
      cache.
    - {b Invalidation}: the cache carries a generation counter; each block
      records the generation it was compiled under, and blocks whose
      generation is stale are recompiled on next entry. A chain link is
      followed only while its target's generation is current, so a
      stale link is never taken; nothing needs to sever it.
      [Cpu.load_program] switches caches when the program changes
      identity; [Cpu.flush_translations] bumps the generation for the rare
      case of in-place mutation of the code array.

    The translation is also the single definition of what each
    instruction does. The hooked path ([Cpu.step], taken while step or
    event hooks are attached) executes the same uops one instruction at a
    time, through the per-instruction memo {!op}; only the fetch its
    hooks observe still reads {!Insn.t}. Faults unwind out of block
    execution with [Cpu.rip] still naming the faulting instruction (every
    uop re-arms [rip] before executing), and serializing/handler
    instructions ([syscall], [vmcall], [wrpkru], …) are block terminators
    executed by [Cpu.exec], the one place their semantics live. *)

(** One predecoded micro-op: one non-terminator instruction with operands
    resolved and issue metadata precomputed. [meta] fields are
    {!Pipeline.pack} words; memory operands appear either flattened
    ([base]+[disp], the [_bd] shapes) or general ([base]/[index]/[scale]/
    [disp] with -1 = absent register, as in {!Insn.mem}). *)
type uop =
  | Unop of { meta : int }
  | Umov_rr of { d : int; s : int; meta : int }
  | Umov_ri of { d : int; imm : int; meta : int }
      (** Also [Mov_label], with the resolved target index as [imm]. *)
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
      (** [Pxor] (lat 1, ALU port) and [Fp_arith] (lat 4, FP port) share
          xor-into semantics; the packed [meta] carries the difference. *)
  | Uaes of { f : Bytes.t -> dst:int -> src:int -> unit; d : int; s : int }
      (** aesenc/aesenclast/aesdec/aesdeclast: the AES-NI binop resolved
          to its in-place round ({!Aesni.Aes.aesenc_into} etc.), run on
          the vector register file at [32*d]/[32*s] (latency 4, AES
          port). *)
  | Uaeskeygen of { d : int; s : int; imm : int; meta : int }
  | Uaesimc of { d : int; s : int }
  | Uvext_high of { d : int; s : int; meta : int }
  | Uvins_high of { d : int; s : int; meta : int }
  (* Retired shapes of the deleted trace-lane optimizer. Nothing
     constructs them and [Cpu.exec_uop] rejects them with
     [Invalid_argument]; they remain, reduced to the fields
     bench/perf/replay.ml binds, until the next benchmark change drops
     that file's arms for them. *)
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

(** How a block ends, with branch targets resolved to instruction
    indices. [Term_exec] instructions (serializing/handler instructions:
    [Syscall], [Mfence], [Cpuid], [Wrpkru], [Vmfunc], [Vmcall]) are
    executed by [Cpu.exec] and end the chain, because their handlers
    may attach hooks or swap the program. [Term_fall_off] marks a block
    that runs off the end of the code array: executing it re-raises the
    fetch fault of [Program.fetch]. *)
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
  entry : int;  (** instruction index of the first covered instruction *)
  uops : uop array;
      (** the straight-line body: uop [i] is instruction [entry + i] *)
  term : terminator;
  term_idx : int;  (** instruction index of the terminator, [entry + Array.length uops] *)
  bgen : int;  (** generation this block was compiled under *)
  mutable succ_taken : block;
      (** chained successor for the taken branch direction (or the only
          successor of jmp/call); {!dummy_block} until first followed,
          honored only while [succ.bgen] matches the cache generation *)
  mutable succ_fall : block;  (** chained fall-through successor *)
  mutable exec_count : int;
      (** always-on fast-path profile: times this block was entered.
          Saturating (never wraps); incremented by the CPU's block loop. *)
  mutable taken_count : int;
      (** taken-direction exits (jmp / call / taken jcc) *)
  mutable fall_count : int;  (** fall-through exits (untaken jcc) *)
  mutable dyn_target : int;
      (** indirect-edge majority-vote candidate (Boyer–Moore): the entry
          index most indirect exits targeted, [-1] before any *)
  mutable dyn_votes : int;  (** vote excess held by [dyn_target] *)
  mutable dyn_total : int;  (** total indirect exits (ret / call_r / jmp_r) *)
}

type cache

val dummy_block : block
(** The "absent" sentinel used for unfilled cache slots and chain links;
    never executed. *)

val create : Program.t -> cache
(** An empty translation cache for [program]. Blocks are compiled on
    first entry. *)

val owns : cache -> Program.t -> bool
(** Whether this cache translates exactly that program (physical
    identity). *)

val code_length : cache -> int

val get : cache -> int -> block
(** The block entered at instruction index [entry] (must be within the
    code array), compiling it now if absent or generation-stale. *)

val generation : cache -> int

val invalidate : cache -> unit
(** Bump the generation: every cached block and chain link becomes stale
    and is recompiled on next entry, and the {!op} memo is dropped. For
    in-place mutation of the code array; program swaps are handled by
    cache identity ({!owns}). *)

val peek : cache -> int -> block option
(** The cached, generation-fresh block at [entry], without compiling.
    [None] for empty slots, stale generations, or out-of-range entries.
    Introspection for tests and reports; execution uses {!get}. *)

(** One instruction's translation: a body uop, or the terminator it
    would end a block with. *)
type op = Op_uop of uop | Op_term of terminator

val op : cache -> int -> op
(** The translation of the single instruction at [rip] (which must be
    within the code array), for the hooked one-instruction-at-a-time
    path. Memoized per rip; {!invalidate} drops the memo, and a program
    swap replaces the whole cache. *)

(** {2 Fast-path profile}

    Always-on, allocation-free counters maintained by the translated
    execution loop: block execution counts and CFG edge profiles keyed by
    block entry. [Fastprof] captures them, and [report] shows them as its
    hot-block and hot-edge tables. *)

val compiles : cache -> int
(** Blocks compiled (including recompilations after invalidation). *)

val invalidations : cache -> int
(** {!invalidate} calls (generation bumps) on this cache. *)

val bump : int -> int
(** Saturating increment: [bump max_int = max_int]. The increment used by
    every profile counter, exposed for the overflow tests. *)

val note_dyn : block -> int -> unit
(** Record one indirect exit of [block] to entry index [target]:
    increments [dyn_total] and updates the Boyer–Moore majority vote in
    [dyn_target]/[dyn_votes]. If one target has an absolute majority over
    the block's lifetime it is guaranteed to end up as [dyn_target]. *)

(** One block's profile snapshot, with static edge targets resolved:
    [s_taken_target]/[s_fall_target] are successor entry indices or [-1],
    [s_dyn_target] the hot indirect successor (or [-1]). *)
type stat = {
  s_entry : int;
  s_insns : int;  (** instructions covered (uops + terminator) *)
  s_exec : int;
  s_taken : int;
  s_fall : int;
  s_taken_target : int;
  s_fall_target : int;
  s_dyn_target : int;
  s_dyn_votes : int;
  s_dyn_total : int;
}

val stats : cache -> stat list
(** Every block that executed at least once, in entry order. Blocks from
    stale generations are included until their slot is recompiled: the
    profile describes what ran. *)
