(* Key vault: protecting sensitive non-control data (paper §2.2, §4).

   A "server" keeps an AES session key in a vault and seals client records
   with it. The vault is a crypt-protected safe region: between uses it is
   ciphertext under a master key whose round keys live only in ymm
   registers. An attacker with a full read primitive dumps the vault and
   gets noise. Alongside, an ASLR-Guard-style table protects the server's
   callback pointer against overwrite-and-wait attacks.

   Run with: dune exec examples/key_vault.exe *)

open X86sim
open Memsentry

let () =
  let cpu = Cpu.create () in
  let alloc = Safe_region.create_allocator cpu in

  (* The vault holds one 128-bit session key. *)
  let vault = Safe_region.alloc alloc ~size:16 in
  let session_key = Aesni.Aes.block_of_hex "00112233445566778899aabbccddeeff" in
  Mmu.poke_bytes cpu.Cpu.mmu ~va:vault.Safe_region.va session_key;

  (* Seal it with crypt: encrypted in place, master key in ymm highs. *)
  Instr_crypt.setup cpu ~seed:42 [ vault ];
  let enter, leave = Instr_crypt.brackets [ vault ] in

  (* Attacker dumps the vault. *)
  let dumped = Mmu.peek_bytes cpu.Cpu.mmu ~va:vault.Safe_region.va ~len:16 in
  Printf.printf "session key:     %s\n" (Aesni.Aes.hex_of_block session_key);
  Printf.printf "attacker dump:   %s  (ciphertext)\n" (Aesni.Aes.hex_of_block dumped);
  assert (not (Bytes.equal dumped session_key));

  (* The server's authorized path: open the domain, use the key, close.
     Here we run the actual enter/leave instruction sequences. *)
  let prog =
    Program.assemble
      ((Program.Label "main" :: List.map (fun i -> Program.I i) enter)
      @ [
          (* use the key: load it into xmm14 for a (simulated) TLS record seal *)
          Program.I (Insn.Mov_ri (Reg.rbx, vault.Safe_region.va));
          Program.I (Insn.Movdqa_load (14, Insn.mem ~base:Reg.rbx 0));
        ]
      @ List.map (fun i -> Program.I i) leave
      @ [ Program.I Insn.Halt ])
  in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  let used = Cpu.get_xmm cpu 14 in
  Printf.printf "server sees:     %s  (plaintext, inside the domain)\n"
    (Aesni.Aes.hex_of_block used);
  assert (Bytes.equal used session_key);
  let resealed = Mmu.peek_bytes cpu.Cpu.mmu ~va:vault.Safe_region.va ~len:16 in
  Printf.printf "at rest again:   %s  (re-encrypted)\n" (Aesni.Aes.hex_of_block resealed);
  assert (not (Bytes.equal resealed session_key));

  (* ASLR-Guard-style pointer protection for the server's callback. *)
  let table = Safe_region.alloc alloc ~size:128 in
  let pe = Defenses.Ptr_encrypt.create cpu ~seed:7 ~key_table:table () in
  let callback = 0x4242 in
  let stored = Defenses.Ptr_encrypt.encrypt pe ~slot:3 callback in
  Printf.printf "callback 0x%x stored as 0x%x; decrypts to 0x%x\n" callback stored
    (Defenses.Ptr_encrypt.decrypt pe ~slot:3 stored);
  assert (Defenses.Ptr_encrypt.decrypt pe ~slot:3 stored = callback);
  print_endline "key vault demo: all invariants held"
