(* AES-128 per FIPS-197, structured around the x86 AES-NI instruction
   semantics (Intel SDM vol. 2): one round per primitive, caller-managed
   round keys, equivalent inverse cipher for decryption.

   State layout follows the hardware: byte [r + 4*c] of the 16-byte block is
   state row [r], column [c]. Every round works on the four columns as
   32-bit little-endian words (row [r] in bits [8r..8r+7]), in place inside
   a caller's buffer: the simulator runs them directly on its vector
   register file, so a round allocates nothing and needs no lookup table
   beyond the two S-boxes. *)

type block = Bytes.t

let sbox = [|
  0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b; 0xfe; 0xd7; 0xab; 0x76;
  0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0; 0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0;
  0xb7; 0xfd; 0x93; 0x26; 0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
  0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2; 0xeb; 0x27; 0xb2; 0x75;
  0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0; 0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84;
  0x53; 0xd1; 0x00; 0xed; 0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
  0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f; 0x50; 0x3c; 0x9f; 0xa8;
  0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5; 0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2;
  0xcd; 0x0c; 0x13; 0xec; 0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
  0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14; 0xde; 0x5e; 0x0b; 0xdb;
  0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c; 0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79;
  0xe7; 0xc8; 0x37; 0x6d; 0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
  0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f; 0x4b; 0xbd; 0x8b; 0x8a;
  0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e; 0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e;
  0xe1; 0xf8; 0x98; 0x11; 0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
  0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f; 0xb0; 0x54; 0xbb; 0x16;
|]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let check_block b name =
  if Bytes.length b <> 16 then invalid_arg (Printf.sprintf "Aes.%s: block must be 16 bytes" name)

(* Unboxed 32-bit access, like the simulator's 64-bit lane primitives:
   chained through [Int32] conversions, the values stay in registers. The
   unchecked forms are safe because [check_offsets] validates both 16-byte
   operands once per round. Big-endian hosts take the portable
   little-endian accessors. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get_w b i =
  if Sys.big_endian then Int32.to_int (Bytes.get_int32_le b i) land 0xffffffff
  else Int32.to_int (get32u b i) land 0xffffffff

let[@inline] set_w b i w =
  if Sys.big_endian then Bytes.set_int32_le b i (Int32.of_int w)
  else set32u b i (Int32.of_int w)

let check_offsets buf ~dst ~src name =
  let hi = Bytes.length buf - 16 in
  if dst < 0 || dst > hi || src < 0 || src > hi then
    invalid_arg (Printf.sprintf "Aes.%s: offset out of range" name)

let[@inline] sb x = Array.unsafe_get sbox (x land 0xff)
let[@inline] isb x = Array.unsafe_get inv_sbox (x land 0xff)

(* One column of SubBytes(ShiftRows state): row [r] comes from column
   [c + r mod 4], so the caller passes the columns starting at [c]. *)
let[@inline] sub_shift a b c d =
  sb a lor (sb (b lsr 8) lsl 8) lor (sb (c lsr 16) lsl 16) lor (sb (d lsr 24) lsl 24)

(* InvSubBytes(InvShiftRows state): row [r] comes from column [c - r mod 4]. *)
let[@inline] inv_sub_shift a b c d =
  isb a lor (isb (b lsr 8) lsl 8) lor (isb (c lsr 16) lsl 16) lor (isb (d lsr 24) lsl 24)

(* Multiply all four bytes of a word by x in GF(2^8) (modulus 0x11b). *)
let[@inline] xtime w = ((w land 0x7f7f7f7f) lsl 1) lxor (((w lsr 7) land 0x01010101) * 0x1b)

(* Byte rotations within a column: [rot8 w] has row [r] = row [r+1] of [w]. *)
let[@inline] rot8 w = ((w lsr 8) lor (w lsl 24)) land 0xffffffff
let[@inline] rot16 w = ((w lsr 16) lor (w lsl 16)) land 0xffffffff

(* MixColumns: row r <- 2a_r + 3a_(r+1) + a_(r+2) + a_(r+3). *)
let[@inline] mix w =
  let r1 = rot8 w in
  let r2 = rot16 w in
  xtime (w lxor r1) lxor r1 lxor r2 lxor rot8 r2

(* InvMixColumns = MixColumns after the pre-step row r <- 5a_r + 4a_(r+2)
   (the circulant matrices factor as {0e,0b,0d,09} = {02,03,01,01} x
   {05,00,04,00}). *)
let[@inline] inv_mix w = mix (w lxor xtime (xtime (w lxor rot16 w)))

(* Every round reads the whole state and key before writing [dst], so
   [dst = src] (and any overlap) is safe. *)
let aesenc_into buf ~dst ~src =
  check_offsets buf ~dst ~src "aesenc_into";
  let w0 = get_w buf dst and w1 = get_w buf (dst + 4) in
  let w2 = get_w buf (dst + 8) and w3 = get_w buf (dst + 12) in
  let c0 = mix (sub_shift w0 w1 w2 w3) lxor get_w buf src in
  let c1 = mix (sub_shift w1 w2 w3 w0) lxor get_w buf (src + 4) in
  let c2 = mix (sub_shift w2 w3 w0 w1) lxor get_w buf (src + 8) in
  let c3 = mix (sub_shift w3 w0 w1 w2) lxor get_w buf (src + 12) in
  set_w buf dst c0;
  set_w buf (dst + 4) c1;
  set_w buf (dst + 8) c2;
  set_w buf (dst + 12) c3

let aesenclast_into buf ~dst ~src =
  check_offsets buf ~dst ~src "aesenclast_into";
  let w0 = get_w buf dst and w1 = get_w buf (dst + 4) in
  let w2 = get_w buf (dst + 8) and w3 = get_w buf (dst + 12) in
  let c0 = sub_shift w0 w1 w2 w3 lxor get_w buf src in
  let c1 = sub_shift w1 w2 w3 w0 lxor get_w buf (src + 4) in
  let c2 = sub_shift w2 w3 w0 w1 lxor get_w buf (src + 8) in
  let c3 = sub_shift w3 w0 w1 w2 lxor get_w buf (src + 12) in
  set_w buf dst c0;
  set_w buf (dst + 4) c1;
  set_w buf (dst + 8) c2;
  set_w buf (dst + 12) c3

let aesdec_into buf ~dst ~src =
  check_offsets buf ~dst ~src "aesdec_into";
  let w0 = get_w buf dst and w1 = get_w buf (dst + 4) in
  let w2 = get_w buf (dst + 8) and w3 = get_w buf (dst + 12) in
  let c0 = inv_mix (inv_sub_shift w0 w3 w2 w1) lxor get_w buf src in
  let c1 = inv_mix (inv_sub_shift w1 w0 w3 w2) lxor get_w buf (src + 4) in
  let c2 = inv_mix (inv_sub_shift w2 w1 w0 w3) lxor get_w buf (src + 8) in
  let c3 = inv_mix (inv_sub_shift w3 w2 w1 w0) lxor get_w buf (src + 12) in
  set_w buf dst c0;
  set_w buf (dst + 4) c1;
  set_w buf (dst + 8) c2;
  set_w buf (dst + 12) c3

let aesdeclast_into buf ~dst ~src =
  check_offsets buf ~dst ~src "aesdeclast_into";
  let w0 = get_w buf dst and w1 = get_w buf (dst + 4) in
  let w2 = get_w buf (dst + 8) and w3 = get_w buf (dst + 12) in
  let c0 = inv_sub_shift w0 w3 w2 w1 lxor get_w buf src in
  let c1 = inv_sub_shift w1 w0 w3 w2 lxor get_w buf (src + 4) in
  let c2 = inv_sub_shift w2 w1 w0 w3 lxor get_w buf (src + 8) in
  let c3 = inv_sub_shift w3 w2 w1 w0 lxor get_w buf (src + 12) in
  set_w buf dst c0;
  set_w buf (dst + 4) c1;
  set_w buf (dst + 8) c2;
  set_w buf (dst + 12) c3

let aesimc_into buf ~dst ~src =
  check_offsets buf ~dst ~src "aesimc_into";
  let c0 = inv_mix (get_w buf src) and c1 = inv_mix (get_w buf (src + 4)) in
  let c2 = inv_mix (get_w buf (src + 8)) and c3 = inv_mix (get_w buf (src + 12)) in
  set_w buf dst c0;
  set_w buf (dst + 4) c1;
  set_w buf (dst + 8) c2;
  set_w buf (dst + 12) c3

(* SubWord is [sub_shift] of one column; RotWord ([a0;a1;a2;a3] ->
   [a1;a2;a3;a0]) is [rot8]. *)
let aeskeygenassist_into buf ~dst ~src rcon =
  check_offsets buf ~dst ~src "aeskeygenassist_into";
  let x1 = get_w buf (src + 4) and x3 = get_w buf (src + 12) in
  let x1 = sub_shift x1 x1 x1 x1 and x3 = sub_shift x3 x3 x3 x3 in
  set_w buf dst x1;
  set_w buf (dst + 4) (rot8 x1 lxor rcon);
  set_w buf (dst + 8) x3;
  set_w buf (dst + 12) (rot8 x3 lxor rcon)

(* ------------------------------------------------------------------ *)
(* Pure API: fresh blocks, inputs untouched                            *)
(* ------------------------------------------------------------------ *)

let block_of_hex s =
  if String.length s <> 32 then invalid_arg "Aes.block_of_hex: need 32 hex digits";
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.set_uint8 b i (int_of_string ("0x" ^ String.sub s (2 * i) 2))
  done;
  b

let hex_of_block b =
  check_block b "hex_of_block";
  let buf = Buffer.create 32 in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let xor_into buf ~dst ~src =
  for i = 0 to 3 do
    set_w buf (dst + (4 * i)) (get_w buf (dst + (4 * i)) lxor get_w buf (src + (4 * i)))
  done

(* [state] at 0, [key] at 16 of one scratch buffer; the result is its
   first half. *)
let binop into name state key =
  check_block state name;
  check_block key name;
  let buf = Bytes.create 32 in
  Bytes.blit state 0 buf 0 16;
  Bytes.blit key 0 buf 16 16;
  into buf ~dst:0 ~src:16;
  Bytes.sub buf 0 16

let xor_block a b = binop xor_into "xor_block" a b
let aesenc state key = binop aesenc_into "aesenc" state key
let aesenclast state key = binop aesenclast_into "aesenclast" state key
let aesdec state key = binop aesdec_into "aesdec" state key
let aesdeclast state key = binop aesdeclast_into "aesdeclast" state key

let aesimc key =
  check_block key "aesimc";
  let out = Bytes.copy key in
  aesimc_into out ~dst:0 ~src:0;
  out

let aeskeygenassist src rcon =
  check_block src "aeskeygenassist";
  let out = Bytes.copy src in
  aeskeygenassist_into out ~dst:0 ~src:0 rcon;
  out

let rcons = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let expand_key key =
  check_block key "expand_key";
  let keys = Array.make 11 key in
  let assist = Bytes.create 16 in
  for round = 1 to 10 do
    let prev = keys.(round - 1) in
    Bytes.blit prev 0 assist 0 16;
    aeskeygenassist_into assist ~dst:0 ~src:0 rcons.(round - 1);
    let k = Bytes.create 16 in
    let k0 = get_w prev 0 lxor get_w assist 12 in
    let k1 = get_w prev 4 lxor k0 in
    let k2 = get_w prev 8 lxor k1 in
    let k3 = get_w prev 12 lxor k2 in
    set_w k 0 k0;
    set_w k 4 k1;
    set_w k 8 k2;
    set_w k 12 k3;
    keys.(round) <- k
  done;
  keys

let inv_round_keys keys =
  if Array.length keys <> 11 then invalid_arg "Aes.inv_round_keys: need 11 round keys";
  Array.mapi (fun i k -> if i = 0 || i = 10 then k else aesimc k) keys

let encrypt_at buf ~pos ~ks =
  xor_into buf ~dst:pos ~src:ks;
  for round = 1 to 9 do
    aesenc_into buf ~dst:pos ~src:(ks + (16 * round))
  done;
  aesenclast_into buf ~dst:pos ~src:(ks + 160)

let decrypt_at buf ~pos ~ks =
  xor_into buf ~dst:pos ~src:(ks + 160);
  for round = 9 downto 1 do
    aesdec_into buf ~dst:pos ~src:(ks + (16 * round))
  done;
  aesdeclast_into buf ~dst:pos ~src:ks

(* One working buffer per call: [data] at 0, then the 11 round keys at
   [n + 16*i] ([aesimc]-transformed for decryption), so every round runs
   in place with no per-block allocation. The result is its first [n]
   bytes. *)
let run_blocks ~inverse name ~key data =
  if Array.length key <> 11 then invalid_arg (Printf.sprintf "Aes.%s: need 11 round keys" name);
  let n = Bytes.length data in
  let buf = Bytes.create (n + 176) in
  Bytes.blit data 0 buf 0 n;
  Array.iteri
    (fun i k ->
      check_block k name;
      Bytes.blit k 0 buf (n + (16 * i)) 16)
    key;
  if inverse then
    for i = 1 to 9 do
      aesimc_into buf ~dst:(n + (16 * i)) ~src:(n + (16 * i))
    done;
  let f = if inverse then decrypt_at else encrypt_at in
  for i = 0 to (n / 16) - 1 do
    f buf ~pos:(16 * i) ~ks:n
  done;
  Bytes.sub buf 0 n

let encrypt_block ~key block =
  check_block block "encrypt_block";
  run_blocks ~inverse:false "encrypt_block" ~key block

let decrypt_block ~key block =
  check_block block "decrypt_block";
  run_blocks ~inverse:true "decrypt_block" ~key block

let check_multiple buf =
  if Bytes.length buf mod 16 <> 0 then invalid_arg "Aes: buffer length must be a multiple of 16"

let encrypt_bytes ~key buf =
  check_multiple buf;
  run_blocks ~inverse:false "encrypt_bytes" ~key buf

let decrypt_bytes ~key buf =
  check_multiple buf;
  run_blocks ~inverse:true "decrypt_bytes" ~key buf
