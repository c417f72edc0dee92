open Ms_util

type counters = {
  mutable insns : int;
  mutable loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable rets : int;
  mutable ind_branches : int;
  mutable syscalls : int;
  mutable vmfuncs : int;
  mutable vmcalls : int;
  mutable wrpkrus : int;
  mutable aes_ops : int;
  mutable bnd_checks : int;
  mutable faults : int;
  mutable vm_exits : int;
}

type fault_action = Fault_halt | Fault_skip | Fault_reraise
type status = Halted | Out_of_fuel

type t = {
  gpr : int array;
  xmm : Bytes.t;
  bnd_lower : int array;
  bnd_upper : int array;
  mutable bnd_enabled : bool;
  mutable cmp : int;
  mutable rip : int;
  mutable halted : bool;
  mutable virtualized : bool;
  mutable syscall_hypercall_tax : bool;
  mutable wrpkru_serialize : bool;
  mmu : Mmu.t;
  pipe : Pipeline.t;
  pio : float array;
      (* [Pipeline.io pipe], cached: the float parameter/result channel of
         [Pipeline.issue_fast]. Indexed reads/writes never box, unlike
         float-returning accessors. *)
  sb_line : int array;
      (* store buffer, direct-mapped by 64-byte line (VA-keyed; there is no
         aliasing in this machine): [sb_line] holds the line tag (-1 =
         empty), [sb_ready] the cycle the stored data becomes forwardable.
         Bounded, unlike the Hashtbl it replaces, so memory stays flat on
         arbitrarily long runs; a colliding store simply evicts the older
         line's entry, which can only relax (never add) an ordering edge
         for a store so old it no longer constrains the present. *)
  sb_ready : float array;
  counters : counters;
  mutable site_of : int array;
      (* CPI attribution map: [site_of.(rip)] is the Pipeline row charged
         for instruction [rip] (0 = un-attributed application row). [||]
         (the default) disables per-site attribution: everything lands in
         the pipeline's single default row, and the per-instruction cost
         is one length compare per block chain. Installed by
         [set_site_rows]; must cover the whole code array. *)
  mutable program : Program.t;
  mutable tcache : Ublock.cache;
      (* predecoded basic-block translations of [program]; swapped when
         the program changes identity, generation-bumped by
         [flush_translations] *)
  traces : Trace.tier;
      (* always [Trace.empty]: the deleted trace tier's counters, kept for
         bench/perf until its next change *)
  mutable syscall_handler : t -> unit;
  mutable vmcall_handler : t -> unit;
  mutable ept_violation_handler : t -> gpa:int -> access:Fault.access -> bool;
  mutable fault_handler : t -> Fault.t -> fault_action;
  mutable step_hooks : (int * (t -> Insn.t -> unit)) array;
      (* registered hooks live in [0, n_step_hooks); the arrays are
         append-amortized dynamic arrays so registration is O(1) and
         iteration is index-based (no per-step closure or list walk) *)
  mutable n_step_hooks : int;
  mutable event_hooks : (int * (Event.t -> unit)) array;
  mutable n_event_hooks : int;
  mutable next_hook_id : int;
}

(* Store-buffer capacity in 64-byte lines. Power of two (direct-mapped
   index is a mask). 4096 lines = 256 KiB of tracked stores — far beyond
   the window in which a store's completion time can still gate a load. *)
let sb_slots = 4096

(* Cost-model constants, calibrated against the paper's Table 4. *)
let syscall_cost = 108.0
let vmfunc_cost = 147.0
let vmcall_cost = 613.0
let wrpkru_cost = 55.0
let ept_violation_cost = 1200.0
let mprotect_kernel_cost = 1000.0
let io_kernel_cost = 4000.0

(* Cross-core TLB shootdown: the initiator spins until every remote core
   acknowledges its IPI (send + wait, charged per remote core); each
   remote pays interrupt delivery + the flush on its side when it next
   runs. Magnitudes follow the kernel-mediated costs above — a shootdown
   round trip is somewhat heavier than the local mprotect kernel work. *)
let ipi_cost = 1500.0
let ipi_deliver_cost = 500.0

let sys_nop = 0
let sys_write = 1
let sys_mmap = 9
let sys_mprotect = 10
let sys_munmap = 11
let sys_exit = 60
let sys_pkey_mprotect = 329
let sys_io = 17

let new_counters () =
  {
    insns = 0; loads = 0; stores = 0; calls = 0; rets = 0; ind_branches = 0;
    syscalls = 0; vmfuncs = 0; vmcalls = 0; wrpkrus = 0; aes_ops = 0;
    bnd_checks = 0; faults = 0; vm_exits = 0;
  }

let get_gpr t r = t.gpr.(r)
let set_gpr t r v = t.gpr.(r) <- v

let get_xmm t i = Bytes.sub t.xmm (32 * i) 16
let set_xmm t i b = Bytes.blit b 0 t.xmm (32 * i) 16
let get_ymm_high t i = Bytes.sub t.xmm ((32 * i) + 16) 16
let set_ymm_high t i b = Bytes.blit b 0 t.xmm ((32 * i) + 16) 16

(* Unboxed 64-bit access into the vector-register file. As compiler
   primitives chained through [Int64] primitives, the values stay in
   registers (see the note in physmem.ml); the stdlib [Bytes.get_int64_le]
   equivalents would box one [int64] per lane. Offsets into [t.xmm] are
   8-aligned by construction. *)
external xmm_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external xmm_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* dst <- dst xor src over one 16-byte lane, in place: the hot vector op
   ([Fp_arith]/[Pxor] stand-in semantics) without the three 16-byte
   temporaries that [get_xmm]/[Aes.xor_block]/[set_xmm] would allocate.
   xor is endianness-agnostic, so native-endian lanes are fine. *)
let xmm_xor_into t d s =
  let xmm = t.xmm in
  let db = 32 * d and sb = 32 * s in
  xmm_set64 xmm db (Int64.logxor (xmm_get64 xmm db) (xmm_get64 xmm sb));
  xmm_set64 xmm (db + 8) (Int64.logxor (xmm_get64 xmm (db + 8)) (xmm_get64 xmm (sb + 8)))

let pkru t = t.mmu.Mmu.pkru
let set_pkru t v = t.mmu.Mmu.pkru <- v land 0xFFFFFFFF

(* One serializing special-port issue: a kernel or hypervisor path, a
   fence, or a gate. [lat] is a constant at most call sites, so the call
   allocates nothing. *)
let special t ~lat =
  Pipeline.issue_gate t.pipe ~s1:Reg.pipe_none ~s2:Reg.pipe_none ~d1:Reg.pipe_none ~lat ~busy:1.0
    ~serialize:true ~port:Pipeline.p_special

(* Charge the initiating core for waiting out the shootdown IPIs its
   mapping change just broadcast: one send+acknowledge round trip per
   remote core, serializing (the kernel spins with interrupts off until
   all acks arrive). On a single-core machine this is a no-op, so the
   single-core cycle stream is untouched by the SMP model. *)
let charge_shootdown_ipis t =
  let remotes = Mmu.core_count t.mmu - 1 in
  if remotes > 0 then
    special t ~lat:(float_of_int remotes *. ipi_cost)

let default_syscall_handler t =
  let nr = t.gpr.(Reg.rax) in
  if nr = sys_exit then t.halted <- true
  else if nr = sys_mmap then begin
    let len = Bitops.align_up Physmem.page_size (max t.gpr.(Reg.rsi) Physmem.page_size) in
    (* Machine-level cursor: cores share one address space, so sibling
       mmaps interleave without overlapping (guard page included). *)
    t.gpr.(Reg.rax) <- Mmu.mmap_alloc t.mmu ~len ~writable:true
  end
  else if nr = sys_mprotect then begin
    let addr = t.gpr.(Reg.rdi) and len = t.gpr.(Reg.rsi) and prot = t.gpr.(Reg.rdx) in
    Mmu.protect_range t.mmu ~va:addr ~len ~readable:(prot land 1 = 1)
      ~writable:(prot land 2 = 2);
    special t ~lat:mprotect_kernel_cost;
    charge_shootdown_ipis t;
    t.gpr.(Reg.rax) <- 0
  end
  else if nr = sys_munmap then begin
    let addr = t.gpr.(Reg.rdi) and len = t.gpr.(Reg.rsi) in
    Mmu.unmap_range t.mmu ~va:addr ~len;
    special t ~lat:mprotect_kernel_cost;
    charge_shootdown_ipis t;
    t.gpr.(Reg.rax) <- 0
  end
  else if nr = sys_pkey_mprotect then begin
    let addr = t.gpr.(Reg.rdi) and len = t.gpr.(Reg.rsi) and key = t.gpr.(Reg.r10) in
    Mmu.set_pkey_range t.mmu ~va:addr ~len ~key;
    special t ~lat:mprotect_kernel_cost;
    charge_shootdown_ipis t;
    t.gpr.(Reg.rax) <- 0
  end
  else if nr = sys_io then begin
    special t ~lat:io_kernel_cost;
    t.gpr.(Reg.rax) <- 4096 (* bytes transferred *)
  end
  else if nr = sys_write || nr = sys_nop then t.gpr.(Reg.rax) <- 0
  else t.gpr.(Reg.rax) <- -38 (* ENOSYS *)

(* Build a core over an existing MMU view. Core [i]'s stack tops out at
   [Layout.stack_top - i * stack_stride], so siblings sharing the address
   space get disjoint stacks; core 0 lands exactly where the single-core
   machine always did. *)
let create_on ?(stack_pages = 64) mmu =
  let stack_top = Layout.stack_top - (Mmu.core_id mmu * Layout.stack_stride) in
  let stack_len = stack_pages * Physmem.page_size in
  Mmu.map_range mmu ~va:(stack_top - stack_len) ~len:stack_len ~writable:true;
  let pipe = Pipeline.create () in
  let program = Program.assemble [ Program.I Insn.Halt ] in
  let t =
    {
      gpr = Array.make Reg.gpr_count 0;
      xmm = Bytes.make (16 * 32) '\000';
      bnd_lower = Array.make Reg.bnd_count 0;
      bnd_upper = Array.make Reg.bnd_count max_int;
      bnd_enabled = true;
      cmp = 0;
      rip = 0;
      halted = false;
      virtualized = false;
      syscall_hypercall_tax = true;
      wrpkru_serialize = true;
      mmu;
      pipe;
      pio = Pipeline.io pipe;
      sb_line = Array.make sb_slots (-1);
      sb_ready = Array.make sb_slots 0.0;
      counters = new_counters ();
      site_of = [||];
      program;
      tcache = Ublock.create program;
      traces = Trace.empty;
      syscall_handler = default_syscall_handler;
      vmcall_handler = (fun _ -> Fault.raise_fault (Fault.Undefined "vmcall: no hypervisor"));
      ept_violation_handler = (fun _ ~gpa:_ ~access:_ -> false);
      fault_handler = (fun _ _ -> Fault_reraise);
      step_hooks = [||];
      n_step_hooks = 0;
      event_hooks = [||];
      n_event_hooks = 0;
      next_hook_id = 0;
    }
  in
  t.gpr.(Reg.rsp) <- stack_top - 64;
  t

let create ?stack_pages () = create_on ?stack_pages (Mmu.create ())

(* ------------------------------------------------------------------ *)
(* Hooks and event emission                                            *)
(* ------------------------------------------------------------------ *)

let fresh_hook_id t =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  id

(* Amortized-O(1) ordered append: grow by doubling, slide on removal.
   Registration order is the array order, so iteration order matches the
   old list semantics without the old [l @ [x]] quadratic re-copying. *)
let hook_append arr n entry dummy =
  let arr =
    if n < Array.length arr then arr
    else begin
      let bigger = Array.make (max 4 (2 * Array.length arr)) dummy in
      Array.blit arr 0 bigger 0 n;
      bigger
    end
  in
  arr.(n) <- entry;
  arr

let hook_remove arr n id dummy =
  let j = ref 0 in
  for i = 0 to n - 1 do
    let (hid, _) as h = arr.(i) in
    if hid <> id then begin
      arr.(!j) <- h;
      incr j
    end
  done;
  for i = !j to n - 1 do
    arr.(i) <- dummy (* drop closure references past the live prefix *)
  done;
  !j

let dummy_step_hook : int * (t -> Insn.t -> unit) = (-1, fun _ _ -> ())
let dummy_event_hook : int * (Event.t -> unit) = (-1, fun _ -> ())

let add_step_hook t f =
  let id = fresh_hook_id t in
  t.step_hooks <- hook_append t.step_hooks t.n_step_hooks (id, f) dummy_step_hook;
  t.n_step_hooks <- t.n_step_hooks + 1;
  id

let remove_step_hook t id =
  t.n_step_hooks <- hook_remove t.step_hooks t.n_step_hooks id dummy_step_hook

let add_event_hook t f =
  let id = fresh_hook_id t in
  t.event_hooks <- hook_append t.event_hooks t.n_event_hooks (id, f) dummy_event_hook;
  t.n_event_hooks <- t.n_event_hooks + 1;
  id

let remove_event_hook t id =
  t.n_event_hooks <- hook_remove t.event_hooks t.n_event_hooks id dummy_event_hook

let has_event_hooks t = t.n_event_hooks > 0

let emit t ev =
  for i = 0 to t.n_event_hooks - 1 do
    (snd t.event_hooks.(i)) ev
  done

(* CPI-stack memory-class hint: translate the side state of the MMU/cache
   access that just happened into a one-shot Pipeline attribution class
   for the issue that follows. A TLB miss dominates (the walk is the bulk
   of the latency); otherwise the class names the cache level that missed
   (served-by-L2 = L1 miss, and so on). L1 hits leave the hint untouched
   so they attribute to base/port/store-buffer as usual. *)
let[@inline] note_mem_class t =
  let mmu = t.mmu in
  if mmu.Mmu.last_tlb_miss then Pipeline.set_cls t.pipe Pipeline.cls_tlb
  else
    match Cache.last_served mmu.Mmu.cache with
    | Cache.L1 -> ()
    | Cache.L2 -> Pipeline.set_cls t.pipe Pipeline.cls_l1_miss
    | Cache.L3 -> Pipeline.set_cls t.pipe Pipeline.cls_l2_miss
    | Cache.Dram -> Pipeline.set_cls t.pipe Pipeline.cls_l3_miss

let emit_mem_events t va =
  if t.mmu.Mmu.last_tlb_miss then emit t (Event.Tlb_miss { rip = t.rip; va });
  match Cache.last_served t.mmu.Mmu.cache with
  | Cache.L1 -> ()
  | (Cache.L2 | Cache.L3 | Cache.Dram) as level ->
    emit t (Event.Cache_miss { rip = t.rip; va; level })

(* The memory-event rule: called right after every MMU access, while
   [t.rip] still names the responsible instruction. The CPI class hint is
   unconditional (a pair of scalar stores at most); the [n_event_hooks]
   guard keeps the un-instrumented hot path to one compare and
   allocation-free. *)
let[@inline] emit_mem t va =
  note_mem_class t;
  if t.n_event_hooks > 0 then emit_mem_events t va

(* Re-key the translation cache when [t.program] changed identity. *)
let[@inline] sync_translations t =
  if not (Ublock.owns t.tcache t.program) then t.tcache <- Ublock.create t.program

let load_program t prog =
  t.program <- prog;
  sync_translations t;
  t.halted <- false;
  t.rip <- (if Program.has_label prog "main" then Program.label_index prog "main" else 0)

(* The generation bump is the whole invalidation: every block entry and
   every chain-link follow re-checks [bgen], so no stale block runs. *)
let flush_translations t = Ublock.invalidate t.tcache

let cycles t = Pipeline.cycles t.pipe

let reset_measurement t =
  Pipeline.reset t.pipe;
  let c = t.counters in
  c.insns <- 0; c.loads <- 0; c.stores <- 0; c.calls <- 0; c.rets <- 0;
  c.ind_branches <- 0; c.syscalls <- 0; c.vmfuncs <- 0; c.vmcalls <- 0;
  c.wrpkrus <- 0; c.aes_ops <- 0; c.bnd_checks <- 0; c.faults <- 0;
  c.vm_exits <- 0

let set_site_rows t map ~rows =
  if Array.length map < Program.length t.program then
    invalid_arg "Cpu.set_site_rows: map shorter than the code array";
  let bad = ref (-1) in
  Array.iter (fun r -> if r < 0 || r >= rows then bad := r) map;
  if !bad >= 0 then
    invalid_arg (Printf.sprintf "Cpu.set_site_rows: row %d out of [0, %d)" !bad rows);
  t.site_of <- map;
  Pipeline.install_rows t.pipe rows

let clear_site_rows t =
  t.site_of <- [||];
  Pipeline.install_rows t.pipe 1

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Store-to-load forwarding is not free: a dependent load sees the stored
   value ~5 cycles after the store executes (Skylake-like). *)
let forward_delay = 5.0

(* Record the just-issued store's completion (still sitting in the
   pipeline's io slot) against its cache line. Called right after the
   store's [Pipeline.issue_fast]. *)
let note_store t va =
  let line = va lsr 6 in
  (* [s] is masked into [0, sb_slots) and the arrays are sb_slots long by
     construction, so the accesses here and in [set_load_dep] skip the
     bounds check: together they run once per simulated load or store. *)
  let s = line land (sb_slots - 1) in
  Array.unsafe_set t.sb_line s line;
  Array.unsafe_set t.sb_ready s (t.pio.(Pipeline.io_comp) +. forward_delay)

(* Arm the next issue's dependency floor with the forwarding time of the
   youngest store to this line, if still tracked. Writes the pipeline's
   io slot (which self-resets) instead of returning a float: a float
   return from a non-inlined function is a heap allocation. *)
let set_load_dep t va =
  let line = va lsr 6 in
  let s = line land (sb_slots - 1) in
  if Array.unsafe_get t.sb_line s = line then
    t.pio.(Pipeline.io_dep) <- Array.unsafe_get t.sb_ready s

let eval_cond t (c : Insn.cond) =
  match c with
  | Insn.Eq -> t.cmp = 0
  | Insn.Ne -> t.cmp <> 0
  | Insn.Lt -> t.cmp < 0
  | Insn.Le -> t.cmp <= 0
  | Insn.Gt -> t.cmp > 0
  | Insn.Ge -> t.cmp >= 0

let alu_apply (op : Insn.alu) a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Shl -> a lsl (b land 63)
  | Insn.Shr -> a lsr (b land 63)
  | Insn.Imul -> a * b

let nr = Reg.pipe_none

let push t v =
  t.gpr.(Reg.rsp) <- t.gpr.(Reg.rsp) - 8;
  let va = t.gpr.(Reg.rsp) in
  Mmu.write64_fast t.mmu ~va v;
  emit_mem t va;
    Pipeline.issue_fast t.pipe ~s1:(Reg.pipe_gpr Reg.rsp) ~s2:nr ~s3:nr ~d1:nr ~d2:nr
      ~lat:1 ~port:Pipeline.p_store;
  note_store t va

let pop t =
  let va = t.gpr.(Reg.rsp) in
  let v = Mmu.read64_fast t.mmu ~va in
  emit_mem t va;
  set_load_dep t va;
  Pipeline.issue_fast t.pipe ~s1:(Reg.pipe_gpr Reg.rsp) ~s2:nr ~s3:nr ~d1:nr ~d2:nr
       ~lat:t.mmu.Mmu.last_lat ~port:Pipeline.p_load;
  t.gpr.(Reg.rsp) <- t.gpr.(Reg.rsp) + 8;
  v

(* The six handler-running (serializing) instructions, which every loop
   reaches as a [Ublock.Term_exec] terminator. The block tier ends its
   chain after one, because its handler may attach hooks or swap the
   program. All other instructions execute as uops ([exec_uop]) or
   branch terminators ([exec_branch]). *)
let exec t (insn : Insn.t) =
  let c = t.counters in
  let next = t.rip + 1 in
  match insn with
  | Insn.Syscall ->
    c.syscalls <- c.syscalls + 1;
    if t.virtualized && t.syscall_hypercall_tax then begin
      (* Dune-style process virtualization: the guest's syscall traps to the
         hypervisor and is forwarded — the paper's main source of VMFUNC
         overhead on syscall-heavy code. *)
      c.vmcalls <- c.vmcalls + 1;
      c.vm_exits <- c.vm_exits + 1;
      if t.n_event_hooks > 0 then emit t (Event.Vm_exit { rip = t.rip; reason = "syscall" });
      special t ~lat:vmcall_cost
    end
    else special t ~lat:syscall_cost;
    t.syscall_handler t;
    t.rip <- next
  | Insn.Mfence ->
    special t ~lat:6.0;
    t.rip <- next
  | Insn.Cpuid ->
    special t ~lat:100.0;
    t.rip <- next
  | Insn.Wrpkru ->
    if t.gpr.(Reg.rcx) <> 0 || t.gpr.(Reg.rdx) <> 0 then
      Fault.raise_fault (Fault.Gp_fault "wrpkru requires rcx = rdx = 0");
    c.wrpkrus <- c.wrpkrus + 1;
    set_pkru t t.gpr.(Reg.rax);
    if t.n_event_hooks > 0 then begin
      (* pkru = 0 means every key is permissive: the sensitive domain is
         open. Any restriction bit set means it is (being) closed. *)
      let gate = Event.Pkru (pkru t) in
      emit t
        (if pkru t = 0 then Event.Gate_enter { rip = t.rip; gate }
         else Event.Gate_exit { rip = t.rip; gate })
    end;
    Pipeline.issue_gate t.pipe ~s1:(Reg.pipe_gpr Reg.rax) ~s2:nr ~d1:Reg.pipe_pkru ~lat:wrpkru_cost
      ~busy:1.0 ~serialize:t.wrpkru_serialize ~port:Pipeline.p_special;
    t.rip <- next
  | Insn.Vmfunc ->
    if not t.virtualized then
      Fault.raise_fault (Fault.Undefined "vmfunc outside VMX non-root mode");
    if t.gpr.(Reg.rax) <> 0 then
      Fault.raise_fault (Fault.Gp_fault "vmfunc: only function 0 (EPTP switching) exists");
    let idx = t.gpr.(Reg.rcx) in
    if idx < 0 || idx >= Array.length (Mmu.ept_list t.mmu) then
      Fault.raise_fault (Fault.Gp_fault (Printf.sprintf "vmfunc: EPTP index %d out of range" idx));
    t.mmu.Mmu.ept_index <- idx;
    c.vmfuncs <- c.vmfuncs + 1;
    if t.n_event_hooks > 0 then begin
      (* EPT 0 is the non-sensitive view by the Vmx.Sandbox convention;
         switching to any other EPTP opens a sensitive view. *)
      let gate = Event.Ept idx in
      emit t
        (if idx <> 0 then Event.Gate_enter { rip = t.rip; gate }
         else Event.Gate_exit { rip = t.rip; gate })
    end;
    Pipeline.issue_gate t.pipe ~s1:(Reg.pipe_gpr Reg.rax) ~s2:(Reg.pipe_gpr Reg.rcx) ~d1:nr
      ~lat:vmfunc_cost ~busy:1.0 ~serialize:true ~port:Pipeline.p_special;
    t.rip <- next
  | Insn.Vmcall ->
    if not t.virtualized then
      Fault.raise_fault (Fault.Undefined "vmcall outside VMX non-root mode");
    c.vmcalls <- c.vmcalls + 1;
    c.vm_exits <- c.vm_exits + 1;
    if t.n_event_hooks > 0 then emit t (Event.Vm_exit { rip = t.rip; reason = "vmcall" });
    special t ~lat:vmcall_cost;
    t.vmcall_handler t;
    t.rip <- next
  | _ -> invalid_arg "Cpu.exec: not a handler-running instruction"

(* Effective address of a general-shape predecoded memory operand
   (-1 = absent register, as in [Insn.mem]). *)
let[@inline] ea_gen t base index scale disp =
  (if base >= 0 then t.gpr.(base) else 0)
  + (if index >= 0 then t.gpr.(index) * scale else 0)
  + disp

(* Execute one predecoded micro-op: the single definition of every
   non-terminator instruction's semantics, shared by the hooked [step]
   path and the block tier. Operands and issue metadata are frozen in the
   uop; [rip] belongs to the caller, which arms it to the instruction
   beforehand, so a fault unwinds with [rip] naming the faulting
   instruction and memory events carry it. Every MMU access is followed
   by its own [emit_mem]: the CPI-class hint for that access, plus its
   events when hooks are attached. Within each arm, faults come before
   any counter bump or issue except where the hardware checks after
   issuing (the MPX bound checks). *)
let exec_uop t (u : Ublock.uop) =
  let c = t.counters in
  match u with
  | Ublock.Unop { meta } -> Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Umov_rr { d; s; meta } ->
    t.gpr.(d) <- t.gpr.(s);
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Umov_ri { d; imm; meta } ->
    t.gpr.(d) <- imm;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Uload_bd { d; base; disp; meta } ->
    let va = t.gpr.(base) + disp in
    let v = Mmu.read64_fast t.mmu ~va in
    emit_mem t va;
    t.gpr.(d) <- v;
    c.loads <- c.loads + 1;
    set_load_dep t va;
    Pipeline.issue_packed t.pipe ~meta ~lat:t.mmu.Mmu.last_lat
  | Ublock.Uload_gen { d; base; index; scale; disp; meta } ->
    let va = ea_gen t base index scale disp in
    let v = Mmu.read64_fast t.mmu ~va in
    emit_mem t va;
    t.gpr.(d) <- v;
    c.loads <- c.loads + 1;
    set_load_dep t va;
    Pipeline.issue_packed t.pipe ~meta ~lat:t.mmu.Mmu.last_lat
  | Ublock.Ustore_bd { s; base; disp; meta } ->
    let va = t.gpr.(base) + disp in
    Mmu.write64_fast t.mmu ~va t.gpr.(s);
    emit_mem t va;
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t va
  | Ublock.Ustore_gen { s; base; index; scale; disp; meta } ->
    let va = ea_gen t base index scale disp in
    Mmu.write64_fast t.mmu ~va t.gpr.(s);
    emit_mem t va;
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t va
  | Ublock.Ustorei_bd { imm; base; disp; meta } ->
    let va = t.gpr.(base) + disp in
    Mmu.write64_fast t.mmu ~va imm;
    emit_mem t va;
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t va
  | Ublock.Ustorei_gen { imm; base; index; scale; disp; meta } ->
    let va = ea_gen t base index scale disp in
    Mmu.write64_fast t.mmu ~va imm;
    emit_mem t va;
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t va
  | Ublock.Ulea { d; base; index; scale; disp; meta } ->
    t.gpr.(d) <- ea_gen t base index scale disp;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ulea32 { d; base; index; scale; disp; meta } ->
    (* Address-size prefix: truncation happens in address generation. *)
    t.gpr.(d) <- ea_gen t base index scale disp land 0xFFFFFFFF;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ualu_rr { op; d; s; meta } ->
    let r = alu_apply op t.gpr.(d) t.gpr.(s) in
    t.gpr.(d) <- r;
    t.cmp <- r;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ualu_ri { op; d; imm; meta } ->
    let r = alu_apply op t.gpr.(d) imm in
    t.gpr.(d) <- r;
    t.cmp <- r;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ucmp_rr { a; b; meta } ->
    t.cmp <- t.gpr.(a) - t.gpr.(b);
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ucmp_ri { a; imm; meta } ->
    t.cmp <- t.gpr.(a) - imm;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Utest_rr { a; b; meta } ->
    t.cmp <- t.gpr.(a) land t.gpr.(b);
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Upush { s } ->
    c.stores <- c.stores + 1;
    push t t.gpr.(s)
  | Ublock.Upop { d } ->
    c.loads <- c.loads + 1;
    t.gpr.(d) <- pop t
  | Ublock.Ubnd_set { b; lo; hi; meta } ->
    t.bnd_lower.(b) <- lo;
    t.bnd_upper.(b) <- hi;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ubndc { upper; b; r; meta } ->
    c.bnd_checks <- c.bnd_checks + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    if
      t.bnd_enabled
      && (if upper then t.gpr.(r) > t.bnd_upper.(b) else t.gpr.(r) < t.bnd_lower.(b))
    then
      Fault.raise_fault
        (Fault.Bound_violation
           { value = t.gpr.(r); lower = t.bnd_lower.(b); upper = t.bnd_upper.(b); reg = b })
  | Ublock.Ubndmov_store { b; base; index; scale; disp; meta } ->
    (* Two 8-byte stores, each with its own memory-event attribution. *)
    let a = ea_gen t base index scale disp in
    Mmu.write64_fast t.mmu ~va:a t.bnd_lower.(b);
    emit_mem t a;
    Mmu.write64_fast t.mmu ~va:(a + 8) t.bnd_upper.(b);
    emit_mem t (a + 8);
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t a
  | Ublock.Ubndmov_load { b; base; index; scale; disp; meta } ->
    let a = ea_gen t base index scale disp in
    let lo = Mmu.read64_fast t.mmu ~va:a in
    let lat1 = t.mmu.Mmu.last_lat in
    emit_mem t a;
    let hi = Mmu.read64_fast t.mmu ~va:(a + 8) in
    emit_mem t (a + 8);
    t.bnd_lower.(b) <- lo;
    t.bnd_upper.(b) <- hi;
    c.loads <- c.loads + 1;
    set_load_dep t a;
    Pipeline.issue_packed t.pipe ~meta ~lat:lat1
  | Ublock.Urdpkru { meta } ->
    if t.gpr.(Reg.rcx) <> 0 then Fault.raise_fault (Fault.Gp_fault "rdpkru requires rcx = 0");
    t.gpr.(Reg.rax) <- pkru t;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Umovdqa_load { x; base; index; scale; disp; meta } ->
    let va = ea_gen t base index scale disp in
    Mmu.read_block16_into t.mmu ~va ~dst:t.xmm ~dpos:(32 * x);
    emit_mem t va;
    c.loads <- c.loads + 1;
    set_load_dep t va;
    Pipeline.issue_packed t.pipe ~meta ~lat:t.mmu.Mmu.last_lat
  | Ublock.Umovdqa_store { x; base; index; scale; disp; meta } ->
    let va = ea_gen t base index scale disp in
    Mmu.write_block16_from t.mmu ~va ~src:t.xmm ~spos:(32 * x);
    emit_mem t va;
    c.stores <- c.stores + 1;
    Pipeline.issue_packed_static t.pipe ~meta;
    note_store t va
  | Ublock.Umovq_xr { x; r; meta } ->
    (* Low lane <- gpr (little-endian, as the rest of the register file
       expects), high lane <- 0 — without building a 16-byte temporary. *)
    if Sys.big_endian then Bytes.set_int64_le t.xmm (32 * x) (Int64.of_int t.gpr.(r))
    else xmm_set64 t.xmm (32 * x) (Int64.of_int t.gpr.(r));
    xmm_set64 t.xmm ((32 * x) + 8) 0L;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Umovq_rx { r; x; meta } ->
    t.gpr.(r) <-
      (if Sys.big_endian then Int64.to_int (Bytes.get_int64_le t.xmm (32 * x))
       else Int64.to_int (xmm_get64 t.xmm (32 * x)));
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Uxmm_xor { d; s; meta } ->
    (* [Pxor], and [Fp_arith]'s deterministic stand-in semantics. *)
    xmm_xor_into t d s;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Uaes { f; d; s } ->
    f t.xmm ~dst:(32 * d) ~src:(32 * s);
    c.aes_ops <- c.aes_ops + 1;
    Pipeline.issue_fast t.pipe ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~s3:nr
      ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:4 ~port:Pipeline.p_aes
  | Ublock.Uaeskeygen { d; s; imm; meta } ->
    Aesni.Aes.aeskeygenassist_into t.xmm ~dst:(32 * d) ~src:(32 * s) imm;
    c.aes_ops <- c.aes_ops + 1;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Uaesimc { d; s } ->
    Aesni.Aes.aesimc_into t.xmm ~dst:(32 * d) ~src:(32 * s);
    c.aes_ops <- c.aes_ops + 1;
    (* Microcoded: occupies the AES unit for its full latency. *)
    Pipeline.issue_gate t.pipe ~s1:(Reg.pipe_xmm s) ~s2:nr ~d1:(Reg.pipe_xmm d) ~lat:8.0
      ~busy:8.0 ~serialize:false ~port:Pipeline.p_aes
  | Ublock.Uvext_high { d; s; meta } ->
    Bytes.blit t.xmm ((32 * s) + 16) t.xmm (32 * d) 16;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Uvins_high { d; s; meta } ->
    Bytes.blit t.xmm (32 * s) t.xmm ((32 * d) + 16) 16;
    Pipeline.issue_packed_static t.pipe ~meta
  | Ublock.Ualu_rr_nf _ | Ublock.Ualu_ri_nf _ | Ublock.Uload_bd_c _ | Ublock.Uload_gen_c _
  | Ublock.Ustore_bd_c _ | Ublock.Ustore_gen_c _ | Ublock.Ustorei_bd_c _
  | Ublock.Ustorei_gen_c _ | Ublock.Ufuse_mask_load _ | Ublock.Ufuse_mask_store _
  | Ublock.Ufuse_mask_storei _ | Ublock.Ufuse_lea_bndc _ ->
    invalid_arg "Cpu.exec_uop: retired trace-lane uop"

(* The semantic half of a branch terminator at [t.rip]: counters, stack
   traffic, the issue, and the next rip, left in [t.rip] once nothing can
   fault any more. Returns whether the branch was taken — always, except
   a jcc that falls through. The block tier adds its own half: the edge
   profile bumps and successor following. *)
let exec_branch t (term : Ublock.terminator) =
  let c = t.counters in
  match term with
  | Ublock.Term_jmp { target } ->
    Pipeline.issue_fast t.pipe ~s1:nr ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    t.rip <- target;
    true
  | Ublock.Term_jcc { cond; target } ->
    Pipeline.issue_fast t.pipe ~s1:Reg.pipe_flags ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    let taken = eval_cond t cond in
    t.rip <- (if taken then target else t.rip + 1);
    taken
  | Ublock.Term_call { target } ->
    c.calls <- c.calls + 1;
    push t (t.rip + 1);
    Pipeline.issue_fast t.pipe ~s1:nr ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    t.rip <- target;
    true
  | Ublock.Term_call_r { r } ->
    c.calls <- c.calls + 1;
    c.ind_branches <- c.ind_branches + 1;
    push t (t.rip + 1);
    Pipeline.issue_fast t.pipe ~s1:(Reg.pipe_gpr r) ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    (* Read the target after the push: [r] may be rsp. *)
    t.rip <- t.gpr.(r);
    true
  | Ublock.Term_jmp_r { r } ->
    c.ind_branches <- c.ind_branches + 1;
    Pipeline.issue_fast t.pipe ~s1:(Reg.pipe_gpr r) ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    t.rip <- t.gpr.(r);
    true
  | Ublock.Term_ret ->
    c.rets <- c.rets + 1;
    let v = pop t in
    Pipeline.issue_fast t.pipe ~s1:nr ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:1
      ~port:Pipeline.p_branch;
    t.rip <- v;
    true
  | Ublock.Term_halt | Ublock.Term_exec _ | Ublock.Term_fall_off ->
    invalid_arg "Cpu.exec_branch: not a branch"

let deliver t f saved_rip =
  t.counters.faults <- t.counters.faults + 1;
  if t.n_event_hooks > 0 then emit t (Event.Fault { rip = saved_rip; fault = f });
  match t.fault_handler t f with
  | Fault_halt -> t.halted <- true
  | Fault_skip -> t.rip <- saved_rip + 1
  | Fault_reraise -> raise (Fault.Fault f)

(* Execute one instruction's translation, [t.rip] naming it. *)
let[@inline] exec_op t (o : Ublock.op) =
  match o with
  | Ublock.Op_uop u ->
    exec_uop t u;
    t.rip <- t.rip + 1
  | Ublock.Op_term Ublock.Term_halt -> t.halted <- true
  | Ublock.Op_term (Ublock.Term_exec insn) -> exec t insn
  | Ublock.Op_term term -> ignore (exec_branch t term)

(* Execute one instruction with fault handling and EPT-retry. A top-level
   recursive function (not a closure inside [step]): the closure version
   allocated on every step, fault or not. *)
let rec exec_attempt t o saved n =
  try exec_op t o with
  | Fault.Fault (Fault.Ept_violation { gpa; access; _ } as f) ->
    t.counters.vm_exits <- t.counters.vm_exits + 1;
    if t.n_event_hooks > 0 then emit t (Event.Vm_exit { rip = saved; reason = "ept-violation" });
    special t ~lat:ept_violation_cost;
    if n < 8 && t.ept_violation_handler t ~gpa ~access then begin
      t.rip <- saved;
      exec_attempt t o saved (n + 1)
    end
    else deliver t f saved
  | Fault.Fault f -> deliver t f saved

(* The hooked path: one instruction at a time, so hooks can observe each.
   The hooks see the fetched [Insn.t]; execution runs the instruction's
   memoized translation from the same translation cache the fast loop
   uses, so both paths share one definition of every instruction. The
   translation is taken from the cache of the program the fetch read, even
   if a hook swaps programs. *)
let step t =
  if not t.halted then begin
    let saved = t.rip in
    sync_translations t;
    let insn = Program.fetch t.program saved in
    let cache = t.tcache in
    for i = 0 to t.n_step_hooks - 1 do
      (snd t.step_hooks.(i)) t insn
    done;
    (* Same per-site CPI attribution as the translated loop ([saved] is
       in-bounds here: the fetch above would have faulted otherwise). *)
    let map = t.site_of in
    if saved < Array.length map then
      Pipeline.set_row t.pipe (Array.unsafe_get map saved);
    t.counters.insns <- t.counters.insns + 1;
    exec_attempt t (Ublock.op cache saved) saved 0
  end

(* ------------------------------------------------------------------ *)
(* Translated execution (predecoded basic blocks)                      *)
(* ------------------------------------------------------------------ *)

(* Follow a static chain edge out of [blk]: honor the cached successor
   link when generation-fresh, otherwise look the target up (compiling on
   demand) and memoize the link. A target outside the code array ends the
   chain ([Ublock.dummy_block]) — the dispatch loop re-raises it as the
   fetch fault. Returning the block, rather than writing the caller's
   refs, keeps those refs in registers. *)
let follow_static cache (blk : Ublock.block) target ~taken =
  let nb = if taken then blk.Ublock.succ_taken else blk.Ublock.succ_fall in
  if nb != Ublock.dummy_block && nb.Ublock.bgen = Ublock.generation cache then nb
  else if target >= 0 && target < Ublock.code_length cache then begin
    let nb = Ublock.get cache target in
    if taken then blk.Ublock.succ_taken <- nb else blk.Ublock.succ_fall <- nb;
    nb
  end
  else Ublock.dummy_block

(* Indirect-branch targets change between executions, so they are never
   memoized in the block — just looked up. *)
let follow_dynamic cache target =
  if target >= 0 && target < Ublock.code_length cache then Ublock.get cache target
  else Ublock.dummy_block

(* Execute translated blocks starting at [b0], following chain links
   until fuel runs out, the CPU halts, a handler-running terminator ends
   the chain, or control leaves the code array. Counting discipline is
   [step]'s: [insns] incremented before executing each instruction (so a
   fault unwinds with it counted), [budget] decremented after it
   completes. [t.rip] is re-armed before every uop and before the
   terminator, so faults always unwind with [rip] naming the faulting
   instruction and the EPT-retry handler can resume precisely. *)
let exec_block_chain t cache b0 budget =
  let c = t.counters in
  (* Per-site CPI attribution is active only when an installed map covers
     this cache's whole code array; the check is hoisted to one compare
     per chain (the map cannot change mid-chain — only handlers install
     it, and every handler-running instruction ends the chain). *)
  let map = t.site_of in
  let mapped = Array.length map >= Ublock.code_length cache in
  let bcell = ref b0 in
  let chaining = ref true in
  while !chaining do
    let blk = !bcell in
    let uops = blk.Ublock.uops in
    let n = Array.length uops in
    let entry = blk.Ublock.entry in
    blk.Ublock.exec_count <- Ublock.bump blk.Ublock.exec_count;
    let i = ref 0 in
    (* Two copies of the uop loop so the un-instrumented run (no site map
       installed — the common case) pays nothing per uop for row
       attribution, not even a predictable branch. *)
    if mapped then
      while !i < n && !budget > 0 do
        let rip = entry + !i in
        t.rip <- rip;
        Pipeline.set_row t.pipe (Array.unsafe_get map rip);
        c.insns <- c.insns + 1;
        exec_uop t (Array.unsafe_get uops !i);
        decr budget;
        incr i
      done
    else
      while !i < n && !budget > 0 do
        t.rip <- entry + !i;
        c.insns <- c.insns + 1;
        exec_uop t (Array.unsafe_get uops !i);
        decr budget;
        incr i
      done;
    let next =
      if !i < n || !budget <= 0 then begin
        (* Fuel exhausted: resume at the first unexecuted instruction
           (the terminator itself when [i = n], since [term_idx = entry + n]). *)
        t.rip <- entry + !i;
        Ublock.dummy_block
      end
      else begin
        let ti = blk.Ublock.term_idx in
        t.rip <- ti;
        if mapped && ti < Array.length map then
          Pipeline.set_row t.pipe (Array.unsafe_get map ti);
        match blk.Ublock.term with
        | Ublock.Term_fall_off ->
          (* Ran off the end of the code array: the dispatch loop turns
             this rip into the fault [Program.fetch] raises, uncounted,
             exactly as [step]'s fetch would. *)
          Ublock.dummy_block
        | Ublock.Term_halt ->
          c.insns <- c.insns + 1;
          t.halted <- true;
          decr budget;
          Ublock.dummy_block
        | Ublock.Term_exec insn ->
          c.insns <- c.insns + 1;
          exec t insn;
          decr budget;
          (* Serializing/handler instruction: its handler may have attached
             hooks or swapped the program, so always fall back to the
             dispatch loop, which re-checks both. *)
          Ublock.dummy_block
        | (Ublock.Term_jmp _ | Ublock.Term_jcc _ | Ublock.Term_call _) as term ->
          c.insns <- c.insns + 1;
          let taken = exec_branch t term in
          decr budget;
          if taken then blk.Ublock.taken_count <- Ublock.bump blk.Ublock.taken_count
          else blk.Ublock.fall_count <- Ublock.bump blk.Ublock.fall_count;
          follow_static cache blk t.rip ~taken
        | (Ublock.Term_call_r _ | Ublock.Term_jmp_r _ | Ublock.Term_ret) as term ->
          c.insns <- c.insns + 1;
          ignore (exec_branch t term);
          decr budget;
          Ublock.note_dyn blk t.rip;
          follow_dynamic cache t.rip
      end
    in
    if next == Ublock.dummy_block then chaining := false else bcell := next
  done

(* Raised (and translated back to [Program.fetch]'s fault) when the fast
   loop's block dispatch lands outside the code array, so that fault keeps
   propagating to [run]'s caller exactly as [step]'s out-of-try fetch
   does, instead of being delivered like an execution fault. *)
exception Fetch_out_of_code

(* The no-hook fast loop: [step] minus the hook scan, minus the
   per-instruction exception frame (one [try] per fault, not per
   instruction), and with the per-instruction fetch and memo lookup
   amortized away — control dispatches into predecoded basic blocks
   ([Ublock]) that chain to their successors. Unwinding to a single
   handler is sound because the block executor re-arms [t.rip] before
   every uop (and [exec]/[exec_branch] update it only after their last
   faulting operation), so when a [Fault.Fault] arrives here [t.rip]
   still names the faulting instruction.

   Entered only while both hook lists are empty. The emptiness re-check
   per chain entry is two integer loads — what it buys is that handlers
   (syscall/fault/vmcall) attaching a hook mid-run fall back to the
   instrumented loop at the next dispatch boundary; every instruction
   that can run a handler terminates its block chain, so no hook change
   can go unnoticed within a chain. *)
let run_fast t budget =
  (* EPT-retry bookkeeping across fault unwinds, mirroring
     [exec_attempt]'s recursion depth: a chain of consecutive retries of
     one instruction holds [t.counters.insns] constant (the retry
     decrement below cancels the re-count), so a stale marker can never
     match once any instruction has completed. *)
  let retry_marker = ref (-1) and retries = ref 0 in
  let live = ref true in
  try
    while !live do
      try
        while
          (not t.halted) && !budget > 0 && t.n_step_hooks = 0 && t.n_event_hooks = 0
        do
          (* Handlers may swap the program mid-run; cache identity is
             re-checked at every chain entry (chains end at every
             handler-running instruction). *)
          sync_translations t;
          let cache = t.tcache in
          let rip = t.rip in
          if rip >= 0 && rip < Ublock.code_length cache then
            exec_block_chain t cache (Ublock.get cache rip) budget
          else raise Fetch_out_of_code
        done;
        live := false
      with
      | Fault.Fault (Fault.Ept_violation { gpa; access; _ } as f) ->
        let saved = t.rip in
        t.counters.vm_exits <- t.counters.vm_exits + 1;
        if t.n_event_hooks > 0 then
          emit t (Event.Vm_exit { rip = saved; reason = "ept-violation" });
        special t ~lat:ept_violation_cost;
        let n = if !retry_marker = t.counters.insns then !retries else 0 in
        if n < 8 && t.ept_violation_handler t ~gpa ~access then begin
          retry_marker := t.counters.insns;
          retries := n + 1;
          t.rip <- saved;
          (* The loop re-counts the instruction on retry; cancel it so a
             retried instruction is counted once, as in [exec_attempt]. *)
          t.counters.insns <- t.counters.insns - 1
        end
        else begin
          deliver t f saved;
          decr budget
        end
      | Fault.Fault f ->
        deliver t f t.rip;
        decr budget
    done
  with Fetch_out_of_code ->
    (* Re-raise as the proper fault, from outside the handler above. *)
    ignore (Program.fetch t.program t.rip)

let run ?(fuel = 50_000_000) t =
  let budget = ref fuel in
  while (not t.halted) && !budget > 0 do
    if t.n_step_hooks = 0 && t.n_event_hooks = 0 then run_fast t budget
    else begin
      step t;
      decr budget
    end
  done;
  if t.halted then Halted else Out_of_fuel
