(** Trace-lane uop optimizer.

    Rewrites a formed trace's flat uop segments before install
    ([Trace.try_form] calls {!optimize} once per formation), so the trace
    tier's steady-state loop dispatches fewer, fatter uops:

    - {b macro-fusion} of adjacent dependent pairs: a trailing cmp/test
      feeding the segment's jcc exit moves into the executor's exit stage
      ([os_flags]); the SFI [and]-mask feeding its own base+disp access
      and a [lea] feeding an MPX bound check each collapse into one fused
      uop ({!Ublock.uop}'s [Ufuse_*] shapes) that still performs both
      pipeline issues in the original order;
    - {b inline translation slots} on every 64-bit load/store uop
      ([U*_c] shapes): [r_slots] per-site slots, keyed on the
      {!Mmu.generation_token} contract, let a token-valid re-execution
      skip the TLB probe and walk while still posting the hit;
    - {b dead-flag elimination} ([U*_nf] shapes): an ALU flag write is
      elided when a later write provably reaches every observation point
      first — within a segment, or across an unconditional-jump boundary
      when the successor's first (non-faulting) uop overwrites the flags.
      In the boundary case [os_pend] names the elided write's destination
      register so the executor can re-materialize [cmp] from the register
      file in the one reachable stop point (fuel exhausted exactly at the
      successor's top, zero successor uops run).

    Every rewrite is meant to be observationally identical to the
    unoptimized segment: same architectural state, same fault points and
    faulting-rip values, same pipeline issues in the same order, same
    TLB/cache statistics, cycles and CPI stack. The differential sweeps in
    [test/test_fastpath.ml] check this, CPI stacks included. It has not
    always held: [bench/perf/README.md] records modeled-cycle drift at
    4000 iterations, caused by an empty segment body (a segment that is
    only its terminator) running a placeholder nop issue.

    The optimized body additionally supports lazy rip materialization:
    exactly one pipeline issue per covered instruction, in program order,
    so a fault's architectural rip is reconstructible from the issue delta
    alone (see [Cpu.exec_trace]).

    This module sits {e below} [Trace]: it speaks in raw uop arrays plus
    per-segment exit-shape booleans and never sees [Trace.seg]. *)

(** One optimized segment body. *)
type oseg = {
  os_uops : Ublock.uop array;  (** rewritten body (possibly shorter than the original) *)
  os_flags : Ublock.uop option;
      (** trailing cmp/test fused with a jcc exit, to run in the exit
          stage — after the body, before the condition is evaluated *)
  os_m : int;
      (** architectural instructions covered by [os_uops] + [os_flags]:
          the original body length. The executor's batch
          settle and its fast-path fuel gate both use this. *)
  os_pend : int;
      (** destination register of a cross-boundary dead-flag elision, or
          [-1]: if the trace stops at the {e next} segment's top with zero
          of its uops run, the executor must do [cmp <- gpr.(os_pend)] *)
}

type result = {
  r_segs : oseg array;  (** one per input segment, same order *)
  r_slots : int;  (** inline translation slots assigned (trace-wide) *)
  r_fused : int;  (** macro-fused pairs (incl. exit-stage cmp/jcc fusions) *)
  r_nf : int;  (** dead flag writes elided *)
}

val optimize :
  bodies:Ublock.uop array array ->
  exit_jcc:bool array ->
  exit_jmp:bool array ->
  loops:bool ->
  result
(** Optimize one trace's segment bodies (the segment blocks' uop arrays,
    in segment order). [exit_jcc.(s)] / [exit_jmp.(s)] say whether segment
    [s] exits on a conditional branch / an unconditional jump (the only
    exit kind that can never side-exit — the precondition for
    cross-boundary flag elision); [loops] whether the last segment's exit
    re-enters segment 0. *)
