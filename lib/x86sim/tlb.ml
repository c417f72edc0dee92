type t = {
  slots : int;
  vpns : int array; (* -1 = invalid *)
  epts : int array;
  pt_gens : int array;
  ept_gens : int array;
  infos : int array; (* the entry, packed: see [insert] *)
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
    infos = Array.make slots 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
  }

let slot_of t vpn = vpn land (t.slots - 1)

let slot_index t ~vpn = slot_of t vpn

(* The translation hot path calls this once per simulated memory access:
   a hit costs one call and returns the packed entry word (always >= 0),
   a miss returns -1. [slot_of] masks into [0, slots), so the lookups are
   unchecked. *)
let[@inline always] probe t ~vpn ~ept ~pt_gen ~ept_gen =
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

let slot_info t s = t.infos.(s)

(* Packed entry: hfn lsl 6 | pkey lsl 2 | readable lsl 1 | writable,
   computed once here so a hit reads the whole entry as one word. *)
let insert t ~vpn ~ept ~pt_gen ~ept_gen ~hfn ~readable ~writable ~pkey =
  let s = slot_of t vpn in
  let prev = t.vpns.(s) in
  if prev >= 0 && prev <> vpn then t.eviction_count <- t.eviction_count + 1;
  t.vpns.(s) <- vpn;
  t.epts.(s) <- ept;
  t.pt_gens.(s) <- pt_gen;
  t.ept_gens.(s) <- ept_gen;
  t.infos.(s) <-
    (hfn lsl 6) lor (pkey lsl 2)
    lor (if readable then 2 else 0)
    lor if writable then 1 else 0

let flush t = Array.fill t.vpns 0 t.slots (-1)

let flush_page t ~vpn =
  let s = slot_of t vpn in
  if t.vpns.(s) = vpn then t.vpns.(s) <- -1

let hits t = t.hit_count
let misses t = t.miss_count
let evictions t = t.eviction_count
