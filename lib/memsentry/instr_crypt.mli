(** Domain-based isolation by in-place AES-NI encryption (paper §3.1, §5.3).

    The safe region is kept encrypted at rest; a domain "switch" decrypts
    it in place before the instrumentation point and re-encrypts after.
    Following the paper's implementation choices:

    - the 11 AES-128 round keys live in the {e upper halves of ymm4-ymm14}
      (never spilled to memory — an attacker with a read primitive finds
      only ciphertext and no key);
    - the open sequence derives decryption round keys with [aesimc] on the
      fly (9 [aesimc] per block-decrypt), the cost asymmetry Table 4
      reports;
    - work happens in xmm0/xmm1, {e clobbering them} — which is exactly why
      xmm-heavy benchmarks suffer most under crypt (Figures 4-6);
    - cost scales linearly in the region size (16-byte chunks).

    Regions must be 16-byte-sized/aligned ({!Safe_region.alloc} enforces
    this). *)

type key_location =
  | Ymm_high  (** round keys in ymm4-14 upper halves (the secure default) *)
  | Key_table
      (** round keys in ordinary memory — the insecure, slower variant the
          paper argues against (an attacker's read primitive would recover
          the key); kept for the ablation benchmark *)

val setup :
  X86sim.Cpu.t -> ?key_location:key_location -> seed:int -> Safe_region.region list -> unit
(** Derive a key from [seed], install round keys per [key_location]
    (default [Ymm_high]), and encrypt every region in place (loader-side).
    Raises [Invalid_argument] for a region that is not 16-byte sized and
    aligned. *)

val install_keys : X86sim.Cpu.t -> ?key_location:key_location -> seed:int -> unit -> unit
(** Install the same round keys on a sibling core of a machine already
    prepared with {!setup}: [Ymm_high] keys are per-core register state and
    are recomputed from [seed]; [Key_table] is shared memory, so this is a
    no-op. Never re-encrypts the regions. *)

val brackets :
  ?key_location:key_location -> Safe_region.region list -> X86sim.Insn.t list * X86sim.Insn.t list
(** [(enter, leave)] for these regions, with round keys fetched per
    [key_location] (default [Ymm_high]). [enter] stages (and
    aesimc-transforms) the round keys in xmm2-12, then decrypts every
    region in place; [leave] stages them and re-encrypts. Both clobber
    xmm0-12 and r12/r13. Needs no machine: the sequences depend only on
    the regions and where the keys live. Raises [Invalid_argument] for a
    region that is not 16-byte sized and aligned. *)
