(** Host-physical memory: a sparse pool of 4 KiB frames.

    Frames are allocated on demand and addressed by frame number. Word
    accesses are 64-bit little-endian; values are native [int]s (bit 63 is
    not representable, which no workload here requires — see {!Insn}). *)

val page_size : int
(** 4096. *)

type t

val create : ?max_frames:int -> unit -> t
(** [max_frames] (default [2^20] = 4 GiB) caps the pool; the frame table
    itself starts small and doubles on demand up to the cap. *)

val alloc_frame : t -> int
(** A fresh zeroed frame; returns its frame number. Raises [Failure] with
    an "out of physical frames" message once [max_frames] frames are live —
    a shared pool feeding several cores exhausts memory as a policy matter,
    not as an array bound fault. *)

val frame_count : t -> int

val max_frames : t -> int

val read64 : t -> frame:int -> off:int -> int
(** Raises [Invalid_argument] for an unallocated frame or an offset past
    the frame's end. So do the other accessors here, except that the
    [_trusted] pair skips the frame check. *)

val write64 : t -> frame:int -> off:int -> int -> unit

val read64_trusted : t -> frame:int -> off:int -> int
(** {!read64} minus the frame range check: for callers whose frame number
    provably came from {!alloc_frame} (the MMU's TLB-backed hot path).
    The byte offset remains bounds-checked. *)

val write64_trusted : t -> frame:int -> off:int -> int -> unit
(** {!write64} minus the frame range check; see {!read64_trusted}. *)

val read8 : t -> frame:int -> off:int -> int
val write8 : t -> frame:int -> off:int -> int -> unit

val read_block16_into : t -> frame:int -> off:int -> dst:Bytes.t -> dpos:int -> unit
(** 16-byte read (xmm load), blitted into [dst] at [dpos] — no
    intermediate buffer. *)

val write_block16_from : t -> frame:int -> off:int -> src:Bytes.t -> spos:int -> unit
(** 16-byte write (xmm store), blitted from [src] at [spos]. *)
