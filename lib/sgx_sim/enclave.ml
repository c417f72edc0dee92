open X86sim

exception Enclave_violation of string

let epc_capacity = 96 * 1024 * 1024
let epc_used = ref 0
let epc_in_use () = !epc_used
let reset_epc () = epc_used := 0

let transition_cost = 7664

type t = {
  memory : Bytes.t;
  digest : string;
  ecalls : (string, Bytes.t -> int -> int) Hashtbl.t;
  mutable called : bool; (* entry points freeze after first use *)
  mutable alive : bool;
  size : int;
}

(* FNV-1a over the initial image; a stand-in for MRENCLAVE. *)
let fnv_digest b =
  let h = ref 0x3bf29ce484222325 in
  Bytes.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    b;
  Printf.sprintf "%016x" (!h land max_int)

let create _cpu ~size ~init =
  if size <= 0 then invalid_arg "Enclave.create: size must be positive";
  if Bytes.length init > size then
    raise (Enclave_violation "initial image larger than enclave");
  if !epc_used + size > epc_capacity then raise (Enclave_violation "EPC exhausted");
  epc_used := !epc_used + size;
  let memory = Bytes.make size '\000' in
  Bytes.blit init 0 memory 0 (Bytes.length init);
  { memory; digest = fnv_digest memory; ecalls = Hashtbl.create 8; called = false; alive = true; size }

let measurement t = t.digest

let register_ecall t ~name f =
  if t.called then
    raise (Enclave_violation "cannot add entry points to a finalized, running enclave");
  Hashtbl.replace t.ecalls name f

(* One enclave entry or exit: half the round-trip cost, serializing. *)
let transition cpu =
  let nr = Reg.pipe_none in
  Pipeline.issue cpu.Cpu.pipe ~s1:nr ~s2:nr ~d1:nr ~lat:(transition_cost / 2) ~busy:1
    ~serialize:true ~port:Pipeline.p_special

let ecall t cpu ~name ~arg =
  if not t.alive then raise (Enclave_violation "enclave destroyed");
  t.called <- true;
  match Hashtbl.find_opt t.ecalls name with
  | None -> raise (Enclave_violation (Printf.sprintf "no such ECALL: %s" name))
  | Some f ->
    transition cpu;
    let result = f t.memory arg in
    transition cpu;
    result

let destroy t =
  if t.alive then begin
    t.alive <- false;
    epc_used := !epc_used - t.size
  end
