let p_alu = 0
let p_load = 1
let p_store = 2
let p_branch = 3
let p_mpx = 4
let p_aes = 5
let p_special = 6
let p_fp = 7

let port_count = 8
let units_per_port = [| 4; 2; 1; 1; 2; 1; 1; 2 |]

(* Cycles an execution unit stays busy per operation (1 = fully pipelined).
   (aesimc overrides its occupancy via [busy]). *)
let recip_throughput = [| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let fetch_width = 4.0

(* Evaluated once at module init: without flambda, [1.0 /. fetch_width]
   inside {!issue_core} is a hardware float divide per simulated
   instruction. Exact (power-of-two divisor), so timings are unchanged. *)
let fetch_step = 1.0 /. fetch_width

(* Reorder-buffer depth: instruction i cannot issue before instruction
   i - rob_size has completed. Without this bound a single long dependency
   chain would hide unlimited amounts of independent work, which no real
   core can do. 224 entries approximates Skylake. *)
let rob_size = 224

(* Indices into [clk]. All per-issue float state lives in one float array
   rather than mutable record fields or function arguments: OCaml (without
   flambda) boxes every float stored to a mixed record field, passed to, or
   returned from a non-inlined function — several heap allocations per
   simulated instruction. Float-array loads and stores are always unboxed,
   so [clk] doubles as the parameter/result channel of {!issue_core}:
   callers deposit dep/lat/busy, the core leaves the completion time. *)
let i_fetch = 0 (* fetch front *)
let i_maxc = 1 (* latest completion *)
let io_dep = 2 (* in: extra dependency floor (store-to-load forwarding) *)
let io_lat = 3 (* in: result latency *)
let io_busy = 4 (* in: unit occupancy *)
let io_comp = 5 (* out: completion time of the last issued instruction *)
let i_cyc = 6 (* cached [cycles] as of the last issue (CPI-stack deltas) *)
let clk_size = 7

(* CPI-stack classes: every elapsed cycle is attributed to exactly one.
   [cls_base] doubles as "no hint" for the per-issue override channel
   ([set_cls]), so it must stay 0. The memory classes name the level that
   *served* the access (an L1 miss is a hit in L2, and so on). *)
let cls_base = 0 (* steady-state issue: fetch width, dependency chains, L1 hits *)
let cls_l1_miss = 1 (* served by L2 *)
let cls_l2_miss = 2 (* served by L3 *)
let cls_l3_miss = 3 (* served by DRAM *)
let cls_tlb = 4 (* TLB miss: page-table walk on the access path *)
let cls_sb = 5 (* store-buffer: store-to-load forwarding floor was binding *)
let cls_port = 6 (* port contention: no free execution unit at readiness *)
let cls_gate = 7 (* gate/serializing instruction: wrpkru, vmfunc, bnd, aes, syscall *)
let cls_count = 8

let cls_names =
  [|
    "base"; "l1_miss"; "l2_miss"; "l3_miss"; "tlb_walk"; "store_buffer"; "port_contention";
    "gate";
  |]

(* port → default CPI class: the gate ports (MPX/AES/special) issue gate
   instructions, every other port defaults to base. A table load keeps
   the per-issue classification free of compare-and-branch. *)
let port_cls = [| 0; 0; 0; 0; cls_gate; cls_gate; cls_gate; 0 |]

type t = {
  ready : float array; (* per pipeline register id *)
  units : float array array; (* per port, per unit: next-free time *)
  rob : float array; (* completion times of the last rob_size insns *)
  clk : float array; (* clocks + issue parameter/result slots, see above *)
  mutable insns : int;
  mutable rob_next : int;
      (* insns mod rob_size, maintained incrementally: rob_size is not a
         power of two, so the direct mod is a hardware divide on every
         issued instruction *)
  mutable hint : int;
      (* CPI class override for the next issue (cls_tlb / cls_l*_miss,
         deposited by the CPU right after an MMU access); self-resets to
         cls_base after each issue so only memory ops pay the store *)
  mutable row_base : int;
      (* current attribution row premultiplied by cls_count; row 0 is the
         un-attributed ("application") row *)
  mutable cpi : float array;
      (* per-row, per-class cycle accumulators, [n_rows * cls_count] long.
         Always at least one row, so the accounting in issue_core is
         unconditional — the common un-instrumented case simply never
         leaves row 0. *)
}

let io t = t.clk

let create () =
  {
    ready = Array.make Reg.pipe_count 0.0;
    units = Array.init port_count (fun p -> Array.make units_per_port.(p) 0.0);
    rob = Array.make rob_size 0.0;
    clk = Array.make clk_size 0.0;
    insns = 0;
    rob_next = 0;
    hint = cls_base;
    row_base = 0;
    cpi = Array.make cls_count 0.0;
  }

let reset t =
  Array.fill t.ready 0 (Array.length t.ready) 0.0;
  Array.iter (fun u -> Array.fill u 0 (Array.length u) 0.0) t.units;
  Array.fill t.rob 0 rob_size 0.0;
  Array.fill t.clk 0 clk_size 0.0;
  t.insns <- 0;
  t.rob_next <- 0;
  t.hint <- cls_base;
  t.row_base <- 0;
  (* Keep the installed row geometry (sites are a property of the loaded
     program, not of the measurement window); just zero the cycles. *)
  Array.fill t.cpi 0 (Array.length t.cpi) 0.0

(* {2 CPI-stack channel} *)

let[@inline] set_cls t c = t.hint <- c

let[@inline] set_row t r =
  let base = r * cls_count in
  if base >= 0 && base + cls_count <= Array.length t.cpi then t.row_base <- base

let install_rows t n =
  t.cpi <- Array.make (max 1 n * cls_count) 0.0;
  t.row_base <- 0;
  (* Fresh accumulators start accounting from the current clock: any
     pending application-base gap belongs to the discarded ones. *)
  let clk = t.clk in
  let f = clk.(i_fetch) and m = clk.(i_maxc) in
  clk.(i_cyc) <- (if f >= m then f else m)

(* Base-class cycles on the application row are accounted lazily (see the
   tail of [issue_core]): the delta of a (row 0, base) issue is left
   pending and materialized in one lump at the next non-base charge.
   Readers flush the pending gap first so they always see fully-summed
   accumulators. *)
let flush_cpi t =
  let clk = t.clk in
  let f = clk.(i_fetch) and m = clk.(i_maxc) in
  let cyc = if f >= m then f else m in
  let prev = clk.(i_cyc) in
  if cyc > prev then begin
    t.cpi.(cls_base) <- t.cpi.(cls_base) +. (cyc -. prev);
    clk.(i_cyc) <- cyc
  end

let cpi_rows t =
  flush_cpi t;
  t.cpi

let cpi_row_count t = Array.length t.cpi / cls_count

let cpi_totals t =
  flush_cpi t;
  let tot = Array.make cls_count 0.0 in
  Array.iteri (fun i v -> tot.(i mod cls_count) <- tot.(i mod cls_count) +. v) t.cpi;
  tot

let cycles_accounted t =
  flush_cpi t;
  Array.fold_left ( +. ) 0.0 t.cpi

(* Stdlib [Float.max] is a function call, which boxes both arguments and
   the result; this stays local (and small enough to inline) so the floats
   stay in registers. Identical to [Float.max] on our domain: completion
   times are never NaN and never negative zero. *)
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* Bool.to_int without the cross-module call (no flambda): a bool already
   is 0/1 at runtime, so this compiles to the comparison's set result. *)
let[@inline] b2i (b : bool) = if b then 1 else 0

(* The one scoreboard update. Reads dep/lat/busy from the io slots, leaves
   the completion time in [clk.(io_comp)], and re-arms [io_dep] to 0 so
   only consumers with a real memory dependency pay a store to set it.
   Shared by the fast path and the labeled wrappers so the two can never
   drift numerically. *)
(* Register/port/slot indices are validated at construction time (pack
   asserts its ranges; ports are module constants; the rob slot is
   maintained in [0, rob_size)), so the accesses below are unchecked:
   at one call per simulated instruction, the bounds checks and the
   [mod] divide were a measurable slice of whole-simulator time. *)
let[@inline always] issue_core_f t ~s1 ~s2 ~s3 ~d1 ~d2 ~serialize ~port ~(dep : float)
    ~(lat : float) ~(busy : float) =
  let clk = t.clk in
  let ready = t.ready in
  let slot = t.rob_next in
  let nxt = slot + 1 in
  t.rob_next <- (if nxt = rob_size then 0 else nxt);
  t.insns <- t.insns + 1;
  let fpre = Array.unsafe_get clk i_fetch in
  let floor_time = fmax dep (fmax fpre (Array.unsafe_get t.rob slot)) in
  let earliest = if s3 >= 0 then fmax floor_time (Array.unsafe_get ready s3) else floor_time in
  let earliest = if s2 >= 0 then fmax earliest (Array.unsafe_get ready s2) else earliest in
  let earliest = if s1 >= 0 then fmax earliest (Array.unsafe_get ready s1) else earliest in
  let earliest = if serialize then fmax earliest (Array.unsafe_get clk i_maxc) else earliest in
  (* Pick the execution unit that frees up first. *)
  let units = Array.unsafe_get t.units port in
  let n_units = Array.length units in
  let best = ref 0 in
  if n_units > 1 then begin
    if Array.unsafe_get units 1 < Array.unsafe_get units 0 then best := 1;
    if n_units > 2 then begin
      if Array.unsafe_get units 2 < Array.unsafe_get units !best then best := 2;
      if Array.unsafe_get units 3 < Array.unsafe_get units !best then best := 3
    end
  end;
  let ufree = Array.unsafe_get units !best in
  let t0 = fmax earliest ufree in
  let completion = t0 +. lat in
  Array.unsafe_set t.rob slot completion;
  Array.unsafe_set units !best (t0 +. busy);
  if d1 >= 0 then Array.unsafe_set ready d1 completion;
  if d2 >= 0 then Array.unsafe_set ready d2 completion;
  let m0 = Array.unsafe_get clk i_maxc in
  let m =
    if completion > m0 then begin
      Array.unsafe_set clk i_maxc completion;
      completion
    end
    else m0
  in
  let f0 = fpre +. fetch_step in
  Array.unsafe_set clk i_fetch f0;
  let f =
    if serialize && completion > f0 then begin
      Array.unsafe_set clk i_fetch completion;
      completion
    end
    else f0
  in
  Array.unsafe_set clk io_comp completion;
  (* CPI-stack accounting — pure observation, computed from values the
     scoreboard update already produced, so timing is bit-identical with
     or without consumers. The elapsed-cycle delta of this issue (cycles
     is the max of fetch front and latest completion) is charged to
     exactly one class: an explicit memory hint if the CPU deposited one,
     else gate ports (MPX/AES/special: checks, crypt ops,
     wrpkru/vmfunc/syscall), else the store-buffer forwarding floor if it
     was the binding constraint ([dep >= t0] implies dep was the max
     forming t0), else port contention if the instruction was ready
     before a unit was, else steady-state issue. Deltas telescope, so
     per-class (and per-row) totals always sum to [cycles] up to float
     addition rounding.

     The hot case — base class on the application row — does not touch
     the accumulators at all: its delta is left pending ([i_cyc] lags at
     the clock of the last materialized charge) and charged in one lump
     to the (row 0, base) cell at the next non-base charge or at
     [flush_cpi]. The lump is exact: only (row 0, base) issues ever skip,
     so the whole gap belongs to that one cell. A non-base charge first
     settles the gap up to this issue's entry clock [cyc_pre], then
     charges its own [cyc - cyc_pre] advance to its class's cell. *)
  let h = t.hint in
  t.hint <- cls_base;
  let g = Array.unsafe_get port_cls port in
  let sb = b2i (dep > 0.0) land b2i (dep >= t0) in
  let pc = b2i (ufree > earliest) in
  (* Priority select, lowest first: port contention, store-buffer, gate,
     then an explicit hint overrides everything. Arithmetic instead of an
     if-chain: the conditions are data-dependent, so branches here would
     mispredict on exactly the irregular workloads worth profiling. *)
  let cls = pc * cls_port in
  let cls = cls + (sb * (cls_sb - cls)) in
  let cls = cls + ((g land 1) * (cls_gate - cls)) in
  let cls = cls + (b2i (h <> cls_base) * (h - cls)) in
  let cyc = if f >= m then f else m in
  let prev = Array.unsafe_get clk i_cyc in
  Array.unsafe_set clk i_cyc cyc;
  let cpi = t.cpi in
  let ri = t.row_base + cls in
  Array.unsafe_set cpi ri (Array.unsafe_get cpi ri +. (cyc -. prev))

(* Read-and-reset the store-forwarding dependency floor: only set by
   [set_load_dep]-style callers immediately before a load's issue, and
   self-resetting so every other issue sees 0. *)
let[@inline always] take_dep clk =
  let d = Array.unsafe_get clk io_dep in
  Array.unsafe_set clk io_dep 0.0;
  d

let[@inline] issue_core t ~s1 ~s2 ~s3 ~d1 ~d2 ~serialize ~port =
  let clk = t.clk in
  issue_core_f t ~s1 ~s2 ~s3 ~d1 ~d2 ~serialize ~port ~dep:(take_dep clk)
    ~lat:(Array.unsafe_get clk io_lat)
    ~busy:(Array.unsafe_get clk io_busy)

let issue_fast t ~s1 ~s2 ~s3 ~d1 ~d2 ~lat ~port =
  issue_core_f t ~s1 ~s2 ~s3 ~d1 ~d2 ~serialize:false ~port ~dep:(take_dep t.clk)
    ~lat:(float_of_int lat) ~busy:(Array.unsafe_get recip_throughput port)

(* Predecoded issue metadata: the five pipeline-register ids, the port and
   (for static-latency instructions) the latency of one instruction packed
   into a single immediate int at translation time, so the per-uop hot path
   carries one word instead of six. Register ids are stored +1 (pipe_none =
   -1 encodes as 0) in 6-bit fields; the port gets 3 bits; the latency
   occupies the bits above [meta_lat_shift]. *)
let meta_lat_shift = 33

let pack ~s1 ~s2 ~s3 ~d1 ~d2 ~lat ~port =
  assert (s1 >= -1 && s1 < 63 && s2 >= -1 && s2 < 63 && s3 >= -1 && s3 < 63);
  assert (d1 >= -1 && d1 < 63 && d2 >= -1 && d2 < 63);
  assert (port >= 0 && port < port_count);
  assert (lat >= 0);
  (s1 + 1)
  lor ((s2 + 1) lsl 6)
  lor ((s3 + 1) lsl 12)
  lor ((d1 + 1) lsl 18)
  lor ((d2 + 1) lsl 24)
  lor (port lsl 30)
  lor (lat lsl meta_lat_shift)

let issue_packed t ~meta ~lat =
  let port = (meta lsr 30) land 7 in
  issue_core_f t
    ~s1:((meta land 0x3F) - 1)
    ~s2:(((meta lsr 6) land 0x3F) - 1)
    ~s3:(((meta lsr 12) land 0x3F) - 1)
    ~d1:(((meta lsr 18) land 0x3F) - 1)
    ~d2:(((meta lsr 24) land 0x3F) - 1)
    ~serialize:false ~port ~dep:(take_dep t.clk) ~lat:(float_of_int lat)
    ~busy:(Array.unsafe_get recip_throughput port)

(* Not expressed via [issue_packed]: this is the single hottest call in
   translated execution, and flattening it drops one call frame per
   executed uop. *)
let issue_packed_static t ~meta =
  let port = (meta lsr 30) land 7 in
  issue_core_f t
    ~s1:((meta land 0x3F) - 1)
    ~s2:(((meta lsr 6) land 0x3F) - 1)
    ~s3:(((meta lsr 12) land 0x3F) - 1)
    ~d1:(((meta lsr 18) land 0x3F) - 1)
    ~d2:(((meta lsr 24) land 0x3F) - 1)
    ~serialize:false ~port ~dep:0.0 ~lat:(float_of_int (meta lsr meta_lat_shift))
    ~busy:(Array.unsafe_get recip_throughput port)

(* The labeled and gate forms: floats go through the io slots, so a
   caller passing constant latencies allocates nothing. The pending
   [io_dep] floor is consumed as in [issue_fast] (only a load's issue ever
   leaves one). *)
let issue_gate t ~s1 ~s2 ~d1 ~lat ~busy ~serialize ~port =
  let clk = t.clk in
  clk.(io_lat) <- lat;
  clk.(io_busy) <- busy;
  issue_core t ~s1 ~s2 ~s3:(-1) ~d1 ~d2:(-1) ~serialize ~port

let issue_t t ?(s1 = -1) ?(s2 = -1) ?(d1 = -1) ?(dep = 0.0) ?(lat = 1.0) ?busy
    ?(serialize = false) ~port () =
  t.clk.(io_dep) <- dep;
  let busy = match busy with Some b -> b | None -> recip_throughput.(port) in
  issue_gate t ~s1 ~s2 ~d1 ~lat ~busy ~serialize ~port;
  t.clk.(io_comp)

let issue t ?s1 ?s2 ?d1 ?dep ?lat ?busy ?serialize ~port () =
  ignore (issue_t t ?s1 ?s2 ?d1 ?dep ?lat ?busy ?serialize ~port ())

let cycles t = fmax t.clk.(i_fetch) t.clk.(i_maxc)

let instructions t = t.insns

let ipc t =
  let c = cycles t in
  if c <= 0.0 then 0.0 else float_of_int t.insns /. c

