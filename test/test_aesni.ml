(* AES-128 correctness: FIPS-197 appendix vectors, instruction-level
   semantics checked against a bit-serial oracle, the in-place rounds'
   allocation and range contracts, and round-trip properties. *)

open Aesni

let block = Alcotest.testable (fun fmt b -> Fmt.string fmt (Aes.hex_of_block b)) Bytes.equal

(* FIPS-197 appendix C.1 *)
let fips_key = "000102030405060708090a0b0c0d0e0f"
let fips_plain = "00112233445566778899aabbccddeeff"
let fips_cipher = "69c4e0d86a7b0430d8cdb78070b4c55a"

(* FIPS-197 appendix B *)
let appb_key = "2b7e151628aed2a6abf7158809cf4f3c"
let appb_plain = "3243f6a8885a308d313198a2e0370734"
let appb_cipher = "3925841d02dc09fbdc118597196a0b32"

let keys_of_hex h = Aes.expand_key (Aes.block_of_hex h)

let test_fips_encrypt () =
  let ct = Aes.encrypt_block ~key:(keys_of_hex fips_key) (Aes.block_of_hex fips_plain) in
  Alcotest.check block "C.1 ciphertext" (Aes.block_of_hex fips_cipher) ct

let test_fips_decrypt () =
  let pt = Aes.decrypt_block ~key:(keys_of_hex fips_key) (Aes.block_of_hex fips_cipher) in
  Alcotest.check block "C.1 plaintext" (Aes.block_of_hex fips_plain) pt

let test_appendix_b () =
  let ct = Aes.encrypt_block ~key:(keys_of_hex appb_key) (Aes.block_of_hex appb_plain) in
  Alcotest.check block "B ciphertext" (Aes.block_of_hex appb_cipher) ct

let test_key_schedule () =
  (* FIPS-197 appendix A.1: last round key of the 2b7e15... schedule. *)
  let keys = keys_of_hex appb_key in
  Alcotest.(check string)
    "round key 10" "d014f9a8c9ee2589e13f0cc8b6630ca6"
    (Aes.hex_of_block keys.(10));
  Alcotest.(check string)
    "round key 1" "a0fafe1788542cb123a339392a6c7605"
    (Aes.hex_of_block keys.(1))

let test_hex_roundtrip () =
  Alcotest.(check string) "hex" fips_plain (Aes.hex_of_block (Aes.block_of_hex fips_plain))

let test_xor_involution () =
  let a = Aes.block_of_hex fips_plain and b = Aes.block_of_hex fips_key in
  Alcotest.check block "xor twice" a (Aes.xor_block (Aes.xor_block a b) b)

let test_aesimc_matches_inv_schedule () =
  let keys = keys_of_hex fips_key in
  let inv = Aes.inv_round_keys keys in
  Alcotest.check block "ends untouched" keys.(0) inv.(0);
  Alcotest.check block "ends untouched" keys.(10) inv.(10);
  Alcotest.check block "middle transformed" (Aes.aesimc keys.(5)) inv.(5)

let test_bad_block_length () =
  Alcotest.check_raises "short block" (Invalid_argument "Aes.aesenc: block must be 16 bytes")
    (fun () -> ignore (Aes.aesenc (Bytes.create 8) (Bytes.create 16)))

let test_ecb_multiblock () =
  let key = keys_of_hex fips_key in
  let buf = Bytes.create 64 in
  Bytes.fill buf 0 64 'x';
  let ct = Aes.encrypt_bytes ~key buf in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct buf);
  (* Identical plaintext blocks encrypt identically under ECB. *)
  Alcotest.check block "ECB determinism" (Bytes.sub ct 0 16) (Bytes.sub ct 16 16);
  Alcotest.(check bytes) "round trip" buf (Aes.decrypt_bytes ~key ct)

let test_ecb_rejects_partial () =
  Alcotest.check_raises "unaligned" (Invalid_argument "Aes: buffer length must be a multiple of 16")
    (fun () -> ignore (Aes.encrypt_bytes ~key:(keys_of_hex fips_key) (Bytes.create 15)))

(* Property: decrypt_block inverts encrypt_block for random keys and blocks. *)
let gen_block =
  QCheck.Gen.(map (fun s -> Bytes.of_string s) (string_size ~gen:char (return 16)))

let arb_block = QCheck.make ~print:(fun b -> Aes.hex_of_block b) gen_block

let prop_roundtrip =
  QCheck.Test.make ~name:"aes encrypt/decrypt round-trip" ~count:200
    (QCheck.pair arb_block arb_block)
    (fun (k, pt) ->
      let key = Aes.expand_key k in
      Bytes.equal pt (Aes.decrypt_block ~key (Aes.encrypt_block ~key pt)))

let prop_enc_injective_in_key =
  QCheck.Test.make ~name:"different keys give different ciphertexts" ~count:100
    (QCheck.triple arb_block arb_block arb_block)
    (fun (k1, k2, pt) ->
      QCheck.assume (not (Bytes.equal k1 k2));
      let c1 = Aes.encrypt_block ~key:(Aes.expand_key k1) pt in
      let c2 = Aes.encrypt_block ~key:(Aes.expand_key k2) pt in
      not (Bytes.equal c1 c2))

(* --- bit-serial FIPS-197 oracle --------------------------------------- *)

(* The textbook definitions, byte at a time: GF(2^8) products by shift
   and add, the S-box derived from field inverses and the affine map, and
   the (Inv)MixColumns matrices applied with [gmul]. Slow and independent
   of the word-wise rounds under test. *)

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11b) land 0xff else (a lsl 1) land 0xff in
      go a (b lsr 1) acc
  in
  go a b 0

let oracle_sbox =
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.init 256 (fun x ->
      let inv = if x = 0 then 0 else List.find (fun y -> gmul x y = 1) (List.init 256 Fun.id) in
      inv lxor rotl8 inv 1 lxor rotl8 inv 2 lxor rotl8 inv 3 lxor rotl8 inv 4 lxor 0x63)

let oracle_inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) oracle_sbox;
  t

let map_bytes f b = Bytes.init 16 (fun i -> Char.chr (f (Bytes.get_uint8 b i)))
let sub_bytes = map_bytes (fun v -> oracle_sbox.(v))
let inv_sub_bytes = map_bytes (fun v -> oracle_inv_sbox.(v))

(* Byte [r + 4c] is row [r], column [c]; row [r] rotates left by [r]. *)
let shift_rows b =
  Bytes.init 16 (fun i ->
      let r = i mod 4 and c = i / 4 in
      Bytes.get b (r + (4 * ((c + r) mod 4))))

let inv_shift_rows b =
  Bytes.init 16 (fun i ->
      let r = i mod 4 and c = i / 4 in
      Bytes.get b (r + (4 * ((c - r + 4) mod 4))))

let mix_columns_with m b =
  Bytes.init 16 (fun i ->
      let r = i mod 4 and c = i / 4 in
      let s k = Bytes.get_uint8 b ((4 * c) + k) in
      Char.chr
        (gmul m.(r).(0) (s 0) lxor gmul m.(r).(1) (s 1) lxor gmul m.(r).(2) (s 2)
       lxor gmul m.(r).(3) (s 3)))

let mix_columns =
  mix_columns_with [| [| 2; 3; 1; 1 |]; [| 1; 2; 3; 1 |]; [| 1; 1; 2; 3 |]; [| 3; 1; 1; 2 |] |]

let inv_mix_columns =
  mix_columns_with
    [| [| 14; 11; 13; 9 |]; [| 9; 14; 11; 13 |]; [| 13; 9; 14; 11 |]; [| 11; 13; 9; 14 |] |]

let xor16 a b = Bytes.init 16 (fun i -> Char.chr (Bytes.get_uint8 a i lxor Bytes.get_uint8 b i))
let oracle_aesenc st k = xor16 (mix_columns (sub_bytes (shift_rows st))) k
let oracle_aesenclast st k = xor16 (sub_bytes (shift_rows st)) k
let oracle_aesdec st k = xor16 (inv_mix_columns (inv_sub_bytes (inv_shift_rows st))) k
let oracle_aesdeclast st k = xor16 (inv_sub_bytes (inv_shift_rows st)) k
let oracle_aesimc = inv_mix_columns

(* Dwords 1 and 3 through SubWord, and RotWord(SubWord) xor rcon. *)
let oracle_aeskeygenassist src rcon =
  let out = Bytes.create 16 in
  let sub i = oracle_sbox.(Bytes.get_uint8 src i) in
  List.iter
    (fun (o, x) ->
      for j = 0 to 3 do
        Bytes.set_uint8 out (o + j) (sub (x + j))
      done;
      for j = 0 to 3 do
        Bytes.set_uint8 out (o + 4 + j) (sub (x + ((j + 1) mod 4)))
      done;
      Bytes.set_uint8 out (o + 4) (Bytes.get_uint8 out (o + 4) lxor rcon))
    [ (0, 4); (8, 12) ];
  out

let test_oracle_fips () =
  (* The oracle itself reproduces FIPS-197 C.1 through the same round
     structure as [Aes.encrypt_block]. *)
  let keys = keys_of_hex fips_key in
  let st = ref (xor16 (Aes.block_of_hex fips_plain) keys.(0)) in
  for r = 1 to 9 do
    st := oracle_aesenc !st keys.(r)
  done;
  Alcotest.check block "oracle C.1" (Aes.block_of_hex fips_cipher) (oracle_aesenclast !st keys.(10))

(* Each round, three ways against the oracle: the pure wrapper, the
   in-place form at distinct offsets of one buffer (the source operand
   left untouched), and both with the operands aliased ([dst = src], as
   [aesenc xmm1, xmm1]). *)
let into_agrees ~into ~oracle st k =
  let buf = Bytes.make 64 '\xa5' in
  Bytes.blit st 0 buf 16 16;
  Bytes.blit k 0 buf 40 16;
  into buf ~dst:16 ~src:40;
  let alias = Bytes.cat (Bytes.make 8 '\x00') st in
  into alias ~dst:8 ~src:8;
  Bytes.equal (Bytes.sub buf 16 16) (oracle st k)
  && Bytes.equal (Bytes.sub buf 40 16) k
  && Bytes.equal (Bytes.sub alias 8 16) (oracle st st)

let prop_binop name ~into ~pure ~oracle =
  QCheck.Test.make ~name:(name ^ " = bit-serial oracle") ~count:1000
    (QCheck.pair arb_block arb_block)
    (fun (st, k) ->
      Bytes.equal (pure st k) (oracle st k)
      && Bytes.equal (pure st st) (oracle st st)
      && into_agrees ~into ~oracle st k)

let prop_aesimc =
  QCheck.Test.make ~name:"aesimc = bit-serial oracle" ~count:1000
    (QCheck.pair arb_block arb_block)
    (fun (k, other) ->
      (* The unary forms read [src] only: [other] at [dst] is overwritten. *)
      Bytes.equal (Aes.aesimc k) (oracle_aesimc k)
      && into_agrees ~into:Aes.aesimc_into ~oracle:(fun _ k -> oracle_aesimc k) other k)

let prop_aeskeygenassist =
  QCheck.Test.make ~name:"aeskeygenassist = bit-serial oracle" ~count:1000
    (QCheck.triple arb_block arb_block (QCheck.int_bound 255))
    (fun (src, other, rcon) ->
      Bytes.equal (Aes.aeskeygenassist src rcon) (oracle_aeskeygenassist src rcon)
      && into_agrees
           ~into:(fun buf ~dst ~src -> Aes.aeskeygenassist_into buf ~dst ~src rcon)
           ~oracle:(fun _ s -> oracle_aeskeygenassist s rcon)
           other src)

let into_rounds =
  [
    ("aesenc_into", Aes.aesenc_into);
    ("aesenclast_into", Aes.aesenclast_into);
    ("aesdec_into", Aes.aesdec_into);
    ("aesdeclast_into", Aes.aesdeclast_into);
    ("aesimc_into", Aes.aesimc_into);
    ("aeskeygenassist_into", fun buf ~dst ~src -> Aes.aeskeygenassist_into buf ~dst ~src 0x1b);
  ]

(* The simulator runs these on its register file once per simulated AES
   instruction: they must not allocate. *)
let test_into_no_alloc () =
  let buf = Bytes.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  List.iter
    (fun (name, into) ->
      into buf ~dst:0 ~src:32;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        into buf ~dst:0 ~src:32;
        into buf ~dst:16 ~src:16
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) (name ^ ": minor words over 2000 calls") 0.0 words)
    into_rounds

let test_into_range () =
  let buf = Bytes.create 48 in
  List.iter
    (fun (name, into) ->
      List.iter
        (fun (dst, src) ->
          let raised =
            match into buf ~dst ~src with exception Invalid_argument _ -> true | () -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s ~dst:%d ~src:%d raises" name dst src)
            true raised)
        [ (-1, 0); (0, -1); (33, 0); (0, 33); (48, 48); (max_int, 0) ];
      (* The last in-range offset, 48 - 16, is accepted. *)
      into buf ~dst:32 ~src:0)
    into_rounds

(* NIST SP 800-38A F.1.1: ECB-AES128 with the 2b7e15... key. *)
let nist_ecb_pairs =
  [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
  ]

let test_nist_sp800_38a () =
  let key = keys_of_hex appb_key in
  List.iter
    (fun (pt, ct) ->
      Alcotest.check block ("encrypt " ^ pt) (Aes.block_of_hex ct)
        (Aes.encrypt_block ~key (Aes.block_of_hex pt));
      Alcotest.check block ("decrypt " ^ ct) (Aes.block_of_hex pt)
        (Aes.decrypt_block ~key (Aes.block_of_hex ct)))
    nist_ecb_pairs

let suite =
  [
    Alcotest.test_case "fips C.1 encrypt" `Quick test_fips_encrypt;
    Alcotest.test_case "fips C.1 decrypt" `Quick test_fips_decrypt;
    Alcotest.test_case "fips B encrypt" `Quick test_appendix_b;
    Alcotest.test_case "fips A.1 key schedule" `Quick test_key_schedule;
    Alcotest.test_case "NIST SP 800-38A ECB vectors" `Quick test_nist_sp800_38a;
    Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
    Alcotest.test_case "xor involution" `Quick test_xor_involution;
    Alcotest.test_case "aesimc inverse schedule" `Quick test_aesimc_matches_inv_schedule;
    Alcotest.test_case "bad block length" `Quick test_bad_block_length;
    Alcotest.test_case "ECB multi-block" `Quick test_ecb_multiblock;
    Alcotest.test_case "ECB rejects partial block" `Quick test_ecb_rejects_partial;
    Alcotest.test_case "oracle reproduces FIPS C.1" `Quick test_oracle_fips;
    Alcotest.test_case "in-place rounds allocate nothing" `Quick test_into_no_alloc;
    Alcotest.test_case "in-place rounds reject bad offsets" `Quick test_into_range;
    QCheck_alcotest.to_alcotest
      (prop_binop "aesenc" ~into:Aes.aesenc_into ~pure:Aes.aesenc ~oracle:oracle_aesenc);
    QCheck_alcotest.to_alcotest
      (prop_binop "aesenclast" ~into:Aes.aesenclast_into ~pure:Aes.aesenclast
         ~oracle:oracle_aesenclast);
    QCheck_alcotest.to_alcotest
      (prop_binop "aesdec" ~into:Aes.aesdec_into ~pure:Aes.aesdec ~oracle:oracle_aesdec);
    QCheck_alcotest.to_alcotest
      (prop_binop "aesdeclast" ~into:Aes.aesdeclast_into ~pure:Aes.aesdeclast
         ~oracle:oracle_aesdeclast);
    QCheck_alcotest.to_alcotest prop_aesimc;
    QCheck_alcotest.to_alcotest prop_aeskeygenassist;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_enc_injective_in_key;
  ]
