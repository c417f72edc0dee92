type hit = { hfn : int; readable : bool; writable : bool; pkey : int }

type t = {
  slots : int;
  vpns : int array; (* -1 = invalid *)
  epts : int array;
  pt_gens : int array;
  ept_gens : int array;
  hfns : int array;
  readables : bool array;
  writables : bool array;
  pkeys : int array;
  infos : int array; (* packed hfn/pkey/permission mirror, see slot_info *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
      (* inserts that displaced a live translation for a different page
         (direct-mapped conflict) — observability only *)
}

let create ?(slots = 1024) () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Tlb.create: slots must be a positive power of two";
  {
    slots;
    vpns = Array.make slots (-1);
    epts = Array.make slots 0;
    pt_gens = Array.make slots 0;
    ept_gens = Array.make slots 0;
    hfns = Array.make slots 0;
    readables = Array.make slots false;
    writables = Array.make slots false;
    pkeys = Array.make slots 0;
    infos = Array.make slots 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
  }

let slot_of t vpn = vpn land (t.slots - 1)

(* Allocation-free probe: the hot path calls this once per memory access,
   so a hit must not build a [hit] record (one heap block per simulated
   load/store otherwise). Returns the slot index, or -1 on miss; the
   caller reads the entry's fields through the slot accessors below. *)
let probe_slot t ~vpn ~ept ~pt_gen ~ept_gen =
  (* [slot_of] masks into [0, slots), so the four lookups are unchecked:
     this probe runs once per simulated memory access. *)
  let s = slot_of t vpn in
  if
    Array.unsafe_get t.vpns s = vpn
    && Array.unsafe_get t.epts s = ept
    && Array.unsafe_get t.pt_gens s = pt_gen
    && Array.unsafe_get t.ept_gens s = ept_gen
  then begin
    t.hit_count <- t.hit_count + 1;
    s
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    -1
  end

let slot_index t ~vpn = slot_of t vpn

(* {!probe_slot} and {!slot_info} fused: the translation hot path pays
   one cross-module call per hit instead of two. Returns the packed
   {!slot_info} word (always >= 0), or -1 on miss. *)
let[@inline always] probe_info t ~vpn ~ept ~pt_gen ~ept_gen =
  let s = slot_of t vpn in
  if
    Array.unsafe_get t.vpns s = vpn
    && Array.unsafe_get t.epts s = ept
    && Array.unsafe_get t.pt_gens s = pt_gen
    && Array.unsafe_get t.ept_gens s = ept_gen
  then begin
    t.hit_count <- t.hit_count + 1;
    Array.unsafe_get t.infos s
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    -1
  end

(* Packed entry: hfn lsl 6 | pkey lsl 2 | readable lsl 1 | writable.
   Computed once at insert so the translation hot path reads the whole
   entry with a single cross-module call (the per-field accessors below
   would be four). *)
let slot_info t s = t.infos.(s)

let slot_hfn t s = t.hfns.(s)
let slot_readable t s = t.readables.(s)
let slot_writable t s = t.writables.(s)
let slot_pkey t s = t.pkeys.(s)

let probe t ~vpn ~ept ~pt_gen ~ept_gen =
  let s = probe_slot t ~vpn ~ept ~pt_gen ~ept_gen in
  if s < 0 then None
  else
    Some
      {
        hfn = t.hfns.(s);
        readable = t.readables.(s);
        writable = t.writables.(s);
        pkey = t.pkeys.(s);
      }

let insert_fields t ~vpn ~ept ~pt_gen ~ept_gen ~hfn ~readable ~writable ~pkey =
  let s = slot_of t vpn in
  let prev = t.vpns.(s) in
  if prev >= 0 && prev <> vpn then t.eviction_count <- t.eviction_count + 1;
  t.vpns.(s) <- vpn;
  t.epts.(s) <- ept;
  t.pt_gens.(s) <- pt_gen;
  t.ept_gens.(s) <- ept_gen;
  t.hfns.(s) <- hfn;
  t.readables.(s) <- readable;
  t.writables.(s) <- writable;
  t.pkeys.(s) <- pkey;
  t.infos.(s) <-
    (hfn lsl 6) lor (pkey lsl 2)
    lor (if readable then 2 else 0)
    lor if writable then 1 else 0

let insert t ~vpn ~ept ~pt_gen ~ept_gen hit =
  insert_fields t ~vpn ~ept ~pt_gen ~ept_gen ~hfn:hit.hfn ~readable:hit.readable
    ~writable:hit.writable ~pkey:hit.pkey

let flush t = Array.fill t.vpns 0 t.slots (-1)

let flush_page t ~vpn =
  let s = slot_of t vpn in
  if t.vpns.(s) = vpn then t.vpns.(s) <- -1

let hits t = t.hit_count
let misses t = t.miss_count
let evictions t = t.eviction_count

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0;
  t.eviction_count <- 0
