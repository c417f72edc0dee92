open X86sim

type key_location = Ymm_high | Key_table

(* Where the insecure Key_table variant parks the schedule (nonsensitive
   partition, 16-byte aligned). *)
let key_table_va = 0x28_0000_0000

let key_reg r = 4 + r (* ymm high half holding round key r *)
let work_reg r = 2 + r (* xmm2-12: per-switch working copy of round key r *)

let state = 0 (* xmm0: working state *)

let addr = Ir.Lower.scratch1
let kaddr = Ir.Lower.scratch2

(* Fetch round key [r] into [dst]: one vextracti128 from a ymm high half,
   or a 16-byte load from the key table. *)
let fetch_key loc r ~dst =
  match loc with
  | Ymm_high -> [ Insn.Vext_high (dst, key_reg r) ]
  | Key_table ->
    [ Insn.Mov_ri (kaddr, key_table_va + (16 * r));
      Insn.Movdqa_load (dst, Insn.mem ~base:kaddr 0) ]

(* Per-switch preparation: stage all round keys in xmm2-12, transforming
   the middle ones with aesimc when decryption keys are needed. Done once
   per switch, not per block — "encryption of larger sizes increases
   linearly on top of this initial cost" (§6.2). Clobbers xmm1-12, the
   register pressure the paper attributes to crypt. *)
let prep_keys loc ~for_decrypt =
  List.concat
    (List.init 11 (fun r ->
         fetch_key loc r ~dst:(work_reg r)
         @ (if for_decrypt && r >= 1 && r <= 9 then [ Insn.Aesimc (work_reg r, work_reg r) ]
            else [])))

let decrypt_block off =
  [ Insn.Movdqa_load (state, Insn.mem ~base:addr off); Insn.Pxor (state, work_reg 10) ]
  @ List.init 9 (fun i -> Insn.Aesdec (state, work_reg (9 - i)))
  @ [ Insn.Aesdeclast (state, work_reg 0) ]
  @ [ Insn.Movdqa_store (Insn.mem ~base:addr off, state) ]

let encrypt_block off =
  [ Insn.Movdqa_load (state, Insn.mem ~base:addr off); Insn.Pxor (state, work_reg 0) ]
  @ List.init 9 (fun i -> Insn.Aesenc (state, work_reg (i + 1)))
  @ [ Insn.Aesenclast (state, work_reg 10) ]
  @ [ Insn.Movdqa_store (Insn.mem ~base:addr off, state) ]

let per_region per_block (r : Safe_region.region) =
  Insn.Mov_ri (addr, r.Safe_region.va)
  :: List.concat (List.init (r.Safe_region.size / 16) (fun b -> per_block (16 * b)))

(* The brackets walk each region in 16-byte blocks; a region they cannot
   cover exactly is refused before any code is emitted or memory touched. *)
let check_regions who regions =
  List.iter
    (fun (r : Safe_region.region) ->
      if r.Safe_region.size mod 16 <> 0 then
        invalid_arg (who ^ ": region size must be a multiple of 16");
      if r.Safe_region.va mod 16 <> 0 then invalid_arg (who ^ ": region must be 16-byte aligned"))
    regions

let brackets ?(key_location = Ymm_high) regions =
  check_regions "Instr_crypt.brackets" regions;
  ( prep_keys key_location ~for_decrypt:true @ List.concat_map (per_region decrypt_block) regions,
    prep_keys key_location ~for_decrypt:false @ List.concat_map (per_region encrypt_block) regions
  )

let key_schedule ~seed =
  let prng = Ms_util.Prng.create ~seed in
  let keyb = Bytes.create 16 in
  Bytes.set_int64_le keyb 0 (Ms_util.Prng.next_int64 prng);
  Bytes.set_int64_le keyb 8 (Ms_util.Prng.next_int64 prng);
  Aesni.Aes.expand_key keyb

(* [Ymm_high] keys are register state, so every core needs its own copy
   (recomputed from the seed); a [Key_table] lives in shared memory and is
   written once by core 0's [setup]. *)
let install_keys cpu ?(key_location = Ymm_high) ~seed () =
  match key_location with
  | Key_table -> ()
  | Ymm_high -> Array.iteri (fun r k -> Cpu.set_ymm_high cpu (key_reg r) k) (key_schedule ~seed)

let setup cpu ?(key_location = Ymm_high) ~seed regions =
  check_regions "Instr_crypt.setup" regions;
  let keys = key_schedule ~seed in
  (match key_location with
  | Ymm_high -> Array.iteri (fun r k -> Cpu.set_ymm_high cpu (key_reg r) k) keys
  | Key_table ->
    Mmu.map_range cpu.Cpu.mmu ~va:key_table_va ~len:(16 * 11) ~writable:true;
    Array.iteri (fun r k -> Mmu.poke_bytes cpu.Cpu.mmu ~va:(key_table_va + (16 * r)) k) keys);
  (* Loader-side initial encryption of the regions. *)
  List.iter
    (fun (r : Safe_region.region) ->
      let plain = Mmu.peek_bytes cpu.Cpu.mmu ~va:r.Safe_region.va ~len:r.Safe_region.size in
      Mmu.poke_bytes cpu.Cpu.mmu ~va:r.Safe_region.va (Aesni.Aes.encrypt_bytes ~key:keys plain))
    regions
