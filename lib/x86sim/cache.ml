let lat_l1 = 4
let lat_l2 = 12
let lat_l3 = 44
let lat_dram = 251

let line_bits = 6 (* 64-byte lines *)

type level = {
  sets : int;
  ways : int;
  tags : int array; (* sets*ways, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mru : int array;
      (* per set: the way hit or installed last. Purely an access hint —
         probes check it before scanning, and with temporal locality it
         almost always matches, collapsing the common L1 hit from an
         up-to-[ways] tag scan to one compare. Never consulted for
         hit/miss or victim decisions, so outcomes are identical with or
         without it (a stale hint just falls back to the scan). *)
  mutable hits : int;
  mutable evictions : int;
      (* installs that displaced a valid line (conflict/capacity victim) —
         observability only, never consulted by the model *)
}

type served = L1 | L2 | L3 | Dram

(* The socket-level tier: one L3 and one DRAM counter shared by every
   core's cache view. It keeps its own LRU clock, advanced once per
   L3-tier access; within the tier the stamp order is the access order,
   which is all LRU victim selection compares — so a single-core machine
   behaves bit-for-bit as it did when L3 shared the core clock. *)
type shared_l3 = {
  l3 : level;
  mutable dram : int;
  mutable sclock : int;
}

type t = {
  l1 : level;
  l2 : level;
  shared : shared_l3;
  mutable clock : int;
  mutable last : served;
}

let level ~sets ~ways =
  {
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    mru = Array.make sets 0;
    hits = 0;
    evictions = 0;
  }

let create_shared_l3 () = { l3 = level ~sets:8192 ~ways:16; dram = 0; sclock = 0 }

let create_core shared =
  {
    l1 = level ~sets:64 ~ways:8;
    l2 = level ~sets:512 ~ways:8;
    shared;
    clock = 0;
    last = L1;
  }

let create () = create_core (create_shared_l3 ())

let shared_tier t = t.shared

(* Probe one level; on hit refresh LRU, on miss install with LRU eviction. *)
let probe lvl line clock =
  let set = line land (lvl.sets - 1) in
  let base = set * lvl.ways in
  let tags = lvl.tags and stamps = lvl.stamps in
  let h = Array.unsafe_get lvl.mru set in
  if Array.unsafe_get tags (base + h) = line then begin
    (* MRU hint hit: with temporal locality this is the overwhelmingly
       common case, one compare instead of the scan below. *)
    Array.unsafe_set stamps (base + h) clock;
    lvl.hits <- lvl.hits + 1;
    true
  end
  else begin
    (* Linear scan as a loop, not a local [rec] function: a local recursive
       function becomes a heap closure over [lvl]/[line]/[base] on every
       probe, the last allocation on the memory fast path. The refs compile
       to registers. Accesses are unchecked: [base + i < sets * ways], the
       array length, by construction — and this scan runs once per level per
       simulated memory access. *)
    let w = ref (-1) in
    let i = ref 0 in
    while !w < 0 && !i < lvl.ways do
      if Array.unsafe_get tags (base + !i) = line then w := !i;
      incr i
    done;
    let w = !w in
    if w >= 0 then begin
      Array.unsafe_set stamps (base + w) clock;
      Array.unsafe_set lvl.mru set w;
      lvl.hits <- lvl.hits + 1;
      true
    end
    else begin
      (* install over LRU victim *)
      let victim = ref 0 in
      for i = 1 to lvl.ways - 1 do
        if Array.unsafe_get stamps (base + i) < Array.unsafe_get stamps (base + !victim) then
          victim := i
      done;
      if Array.unsafe_get tags (base + !victim) >= 0 then lvl.evictions <- lvl.evictions + 1;
      Array.unsafe_set tags (base + !victim) line;
      Array.unsafe_set stamps (base + !victim) clock;
      Array.unsafe_set lvl.mru set !victim;
      false
    end
  end

(* Everything past an L1 MRU-hint hit: the L1 scan, then the lower
   levels. Outlined so {!access}'s inlined fast path stays a handful of
   instructions. *)
let access_below_l1_mru t line =
  if probe t.l1 line t.clock then begin
    t.last <- L1;
    lat_l1
  end
  else if probe t.l2 line t.clock then begin
    t.last <- L2;
    lat_l2
  end
  else begin
    (* Below L2 the access leaves the core: the shared tier stamps with
       its own clock so LRU order reflects socket-wide access order, not
       one core's private instruction count. *)
    let s = t.shared in
    s.sclock <- s.sclock + 1;
    if probe s.l3 line s.sclock then begin
      t.last <- L3;
      lat_l3
    end
    else begin
      s.dram <- s.dram + 1;
      t.last <- Dram;
      lat_dram
    end
  end

(* The L1 MRU-hint hit — the overwhelmingly common access under temporal
   locality — inlined into the caller (one mask, one compare, two
   stores); everything else takes the outlined call. Identical outcomes
   and statistics to running {!probe} directly: the fast path is
   [probe]'s first branch verbatim. *)
let[@inline always] access t ~addr =
  t.clock <- t.clock + 1;
  let line = addr lsr line_bits in
  let lvl = t.l1 in
  let set = line land (lvl.sets - 1) in
  let slot = (set * lvl.ways) + Array.unsafe_get lvl.mru set in
  if Array.unsafe_get lvl.tags slot = line then begin
    Array.unsafe_set lvl.stamps slot t.clock;
    lvl.hits <- lvl.hits + 1;
    t.last <- L1;
    lat_l1
  end
  else access_below_l1_mru t line

let last_served t = t.last

let served_name = function L1 -> "L1" | L2 -> "L2" | L3 -> "L3" | Dram -> "DRAM"

let flush t =
  Array.fill t.l1.tags 0 (Array.length t.l1.tags) (-1);
  Array.fill t.l2.tags 0 (Array.length t.l2.tags) (-1);
  Array.fill t.shared.l3.tags 0 (Array.length t.shared.l3.tags) (-1)

let l1_hits t = t.l1.hits
let l2_hits t = t.l2.hits
let l3_hits t = t.shared.l3.hits
let dram_accesses t = t.shared.dram
let l1_evictions t = t.l1.evictions
let l2_evictions t = t.l2.evictions
let l3_evictions t = t.shared.l3.evictions
