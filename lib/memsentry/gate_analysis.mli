(** Gate-soundness static analysis of instrumented programs.

    A forward abstract interpretation over the {!Ir.Cfg} of an assembled
    program, with one abstract domain per isolation technique. Facts are
    joined across control-flow edges (a check in one block covers the
    blocks it dominates), replacing the older per-label state reset that
    rejected valid cross-block instrumentation.

    {b Address-based} policies (SFI / MPX / ISBoxing) track, per general
    register, whether it provably holds a pointer confined to the
    nonsensitive partition: a known constant below the split, the result
    of masking with a confining constant, or a pointer that survived a
    [bndcu] against a sound bound. Every matching data access must be
    confined. This is Native Client's idea (paper §7 \[56, 70\]): verify
    the sandboxed binary instead of trusting the compiler. The recognized
    confining patterns are:

    - SFI: [mov r13, 0x3fffffffffff] followed by [and r, r13] (or the
      immediate form [and r, mask]);
    - MPX: [bndcu r, bnd0] under the stated [bnd0] bound;
    - ISBoxing: [lea32 r, ...] (a 32-bit address is below any split);
    - constants: [mov r, imm] with [0 <= imm < split].

    {b Domain-based} policies prove ERIM-style {e gate integrity}: the
    abstract gate state (the [pkru] value for MPK, the active EPT index
    for VMFUNC, the region's encryption state for crypt) must be {e
    closed} on every path reaching a [call]/[ret]/[syscall]/indirect
    branch, gates may not be double-opened, gate instructions must have
    statically-known operands, and any access with a provably sensitive
    effective address must execute under an open gate.

    Function bodies entered only through [call] (direct targets and
    address-taken labels) are verified under a havocked register state
    with a closed gate — the assume/guarantee counterpart of checking
    closure at every transfer.

    Stack traffic (rsp-relative with a displacement up to
    {!max_stack_disp}, push/pop/call/ret) is accepted under every policy,
    matching the paper's observation that spills need no instrumentation.

    For a program instrumented with no [safe] annotations the violation
    list is empty; a defense's own safe-region accesses are reported —
    which is the point: the checker shrinks the trusted computing base to
    an audit of exactly those locations. *)

open X86sim

type policy =
  | Sfi_policy
  | Mpx_policy
  | Isboxing_policy
  | Mpk_policy of Mpk.Pkey.protection
      (** closed state must disable the safe-region key per the
          protection level *)
  | Vmfunc_policy
  | Crypt_policy

val policy_name : policy -> string

type finding = { index : int; insn : string; reason : string }
(** [index] is an instruction index ({!analyze}) or an IR instruction id
    ({!lint_module}); [reason] starts with a stable kebab-case tag, e.g.
    ["open-gate-at-ret"] or ["double-open"]. *)

type stats = {
  blocks : int;  (** basic blocks in the CFG *)
  reachable_blocks : int;
  checked_accesses : int;  (** accesses proven confined / correctly gated *)
  proven_gates : int;  (** gate transitions with statically-known operands *)
  guarded_transfers : int;  (** control transfers proven to run gate-closed *)
}

type report = { violations : finding list; lints : finding list; stats : stats }

val max_stack_disp : int
(** rsp-relative displacements up to this bound count as spill traffic. *)

val analyze :
  ?split:int ->
  ?bnd0_upper:int ->
  ?kind:Instr.access_kind ->
  ?mpk_key:int ->
  policy:policy ->
  Program.t ->
  report
(** [split] defaults to {!X86sim.Layout.sensitive_base}; addresses at or
    above it are the safe partition. [bnd0_upper] is the bound the loader
    puts in bnd0 (default [split - 1]; must be [< split] for MPX —
    [Invalid_argument] otherwise). [kind] restricts which accesses the
    address-based policies must confine (default all); the domain-based
    policies never read it. [mpk_key] is the protection key guarding the
    safe region (default 1, matching {!Instr_mpk.key}).

    Violations are fatal soundness holes. Lints are non-fatal findings:
    unreachable (gate) code, gates held open across loop back-edges, and
    redundant re-encryption/re-decryption. *)

(** {2 Solver API for transformation passes}

    {!Memsentry.Gate_opt} reuses the verifier's own abstract domain, so
    anything it proves eliminable is by construction re-verifiable. The
    per-register domain is an interval ([Rrange] with inclusive bounds; a
    singleton is a known constant), with threshold widening at loop
    headers to keep fixpoints finite. *)

type rval = Rtop | Rrange of int * int

type st
(** Abstract machine state at one program point. *)

type solution
(** Solved fixpoint: per-block in-states plus the analysis context. *)

val solve_program :
  ?split:int ->
  ?bnd0_upper:int ->
  ?kind:Instr.access_kind ->
  ?mpk_key:int ->
  policy:policy ->
  Ir.Cfg.prog_cfg ->
  solution
(** Run the fixpoint only (no reporting pass); parameters as {!analyze}. *)

val block_in : solution -> int -> st option
(** In-state of a block ([None] = unreachable). For loop headers this is
    the widened state the fixpoint actually propagated. *)

val step_insn : solution -> int -> X86sim.Insn.t -> st -> st
(** Silent single-instruction transfer: [step_insn sol idx insn st]. *)

val reg_range : st -> int -> rval
val ea_range : st -> X86sim.Insn.mem -> rval
(** Interval of the full effective address [base + index*scale + disp]. *)

val within : rval -> lo:int -> hi:int -> bool
(** Provably inside the inclusive bounds ([Rtop] is never within). *)

val bnd0_valid : st -> bool
(** Does bnd0 still hold the loader's sound bound at this point? *)

val value_confined : solution -> rval -> bool
(** Provably inside [[0, split)]. *)

val access_below_split : solution -> st -> X86sim.Insn.mem -> bool
(** Can this operand provably never reach the safe partition? (Stack
    traffic, or EA upper bound below the split.) *)

val is_stack : X86sim.Insn.mem -> bool
val split_of : solution -> int
val bnd0_upper_of : solution -> int

val lint_module : Ir.Ir_types.modul -> finding list
(** IR-level instrumentation lints, keyed by instruction id: accesses the
    points-to analysis says may touch a sensitive global but that carry no
    [safe_access] annotation (they would fault under instrumentation), and
    annotated accesses points-to proves can never touch one (wasted
    gates); plus unreachable IR blocks. *)

val pp_report : Format.formatter -> report -> unit
