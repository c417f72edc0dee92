(** AES-128 block cipher, implemented from FIPS-197.

    This is the software reference behind the simulator's AES-NI
    instructions. Three layers are exposed:

    - the {e in-place rounds} ([aesenc_into], ...), which implement the x86
      instruction semantics once: one round on a 16-byte state inside a
      caller's buffer, reading the round key from another offset of the
      same buffer and overwriting the state. They work column-wise on
      32-bit words, allocate nothing, and use no table beyond the S-boxes,
      so the simulator runs them directly on its vector register file;
    - the {e pure instruction semantics} ([aesenc], [aesdec], ...), thin
      wrappers that operate on one 128-bit state exactly like the
      corresponding Intel instructions (one round per call, round key
      supplied by the caller, [aesdec] expecting [aesimc]-transformed
      keys), never mutate their inputs and return a fresh block; and
    - a convenience {e full cipher} ([encrypt_block] / [decrypt_block])
      composed from the in-place rounds, verified against the FIPS-197
      appendix C vectors in the test suite.

    Blocks and round keys are 16-byte [Bytes.t] values. *)

type block = Bytes.t
(** Exactly 16 bytes. All functions raise [Invalid_argument] otherwise. *)

(** {2 In-place rounds}

    Each function reads the 16-byte state at [dst] and the 16-byte round
    key (or source operand) at [src] of [buf] and writes the result over
    [dst]. The inputs are read in full before [dst] is written, so
    [dst = src] is allowed, as for [aesenc xmm1, xmm1]. An offset outside
    [0 .. length buf - 16] raises [Invalid_argument]. *)

val aesenc_into : Bytes.t -> dst:int -> src:int -> unit
(** In-place {!aesenc}: [dst <- MixColumns (ShiftRows (SubBytes dst)) xor src]. *)

val aesenclast_into : Bytes.t -> dst:int -> src:int -> unit
(** In-place {!aesenclast}. *)

val aesdec_into : Bytes.t -> dst:int -> src:int -> unit
(** In-place {!aesdec}. *)

val aesdeclast_into : Bytes.t -> dst:int -> src:int -> unit
(** In-place {!aesdeclast}. *)

val aesimc_into : Bytes.t -> dst:int -> src:int -> unit
(** [dst <- InvMixColumns src], as {!aesimc}. *)

val aeskeygenassist_into : Bytes.t -> dst:int -> src:int -> int -> unit
(** [aeskeygenassist_into buf ~dst ~src rcon] writes {!aeskeygenassist}
    of the block at [src] over [dst]. *)

(** {2 Pure API} *)

val block_of_hex : string -> block
(** Parse 32 hex digits into a block. *)

val hex_of_block : block -> string
(** Lowercase hex rendering, 32 digits. *)

val xor_block : block -> block -> block
(** Byte-wise xor ([pxor] on the simulator). *)

val aesenc : block -> block -> block
(** [aesenc state key] = [MixColumns (ShiftRows (SubBytes state)) xor key] —
    one full encryption round, matching the x86 [aesenc] instruction. *)

val aesenclast : block -> block -> block
(** Final encryption round: no MixColumns. *)

val aesdec : block -> block -> block
(** One equivalent-inverse-cipher decryption round (x86 [aesdec]); the
    round key must have been passed through {!aesimc} first. *)

val aesdeclast : block -> block -> block
(** Final decryption round. Uses the plain (untransformed) round key. *)

val aesimc : block -> block
(** InvMixColumns of a round key, as the x86 [aesimc] instruction. *)

val aeskeygenassist : block -> int -> block
(** [aeskeygenassist src rcon] matches the x86 instruction: produces the
    SubWord/RotWord helper words used by the AES-128 key schedule. *)

val expand_key : block -> block array
(** The 11 round keys of AES-128 (index 0 is the cipher key itself), built
    with {!aeskeygenassist} exactly as compiler intrinsics do. *)

val inv_round_keys : block array -> block array
(** Decryption schedule for the equivalent inverse cipher: keys 1..9 are
    {!aesimc}-transformed, 0 and 10 are passed through. This is the 9-round
    [aesimc] sequence whose cost the paper reports in Table 4. *)

val encrypt_block : key:block array -> block -> block
(** Full AES-128 encryption of one block with an {!expand_key} schedule. *)

val decrypt_block : key:block array -> block -> block
(** Full AES-128 decryption; [key] is the {e encryption} schedule (the
    inverse schedule is derived internally via {!inv_round_keys}). *)

val encrypt_bytes : key:block array -> Bytes.t -> Bytes.t
(** ECB over a buffer whose length is a multiple of 16 (the paper's
    "crypt" technique encrypts safe regions in 128-bit chunks). The rounds
    run in place in one working buffer; the input is not modified. *)

val decrypt_bytes : key:block array -> Bytes.t -> Bytes.t
(** Inverse of {!encrypt_bytes}. *)
