(** Thread/allocation spraying (Göktaş et al., "Undermining entropy-based
    information hiding" [32]).

    The attacker exhausts the randomized range with its own allocations
    (sprayed thread stacks); the hidden region becomes the needle in a
    haystack the attacker {e owns} — any mapped page that does not contain
    the attacker's spray marker is the safe region. Finding it then takes
    a bounded scan over attacker-known addresses with no crashes at all. *)

val spray_and_find :
  Primitives.t -> X86sim.Cpu.t -> lo:int -> hi:int -> spray_pages:int -> marker:int -> int option
(** Map [spray_pages] pages across [\[lo, hi)] filled with [marker], then
    scan the range for a mapped page holding something else. *)

(** {2 Cross-core gate-window race}

    A victim on vCPU 0 loops \{open gate; store secret; spin; close
    gate\} while a sibling attacker thread on vCPU 1 hammers the safe
    region with loads (crash-resistant: faulting probes are skipped).
    Deterministic round-robin interleaving makes the race reproducible.

    The result separates the two threat models the paper's single-core
    evaluation conflates: a [Wrpkru_gate] is {e per-core register state},
    so the attacker faults on every probe no matter how wide the victim's
    window ([rr_leaks = 0]); an [Mprotect_gate] lives in the {e shared
    page table}, so every probe scheduled inside the victim's open window
    reads the secret ([rr_leaks > 0]). *)

type gate =
  | Wrpkru_gate  (** MPK: victim toggles its own PKRU (key 1, [No_access]). *)
  | Mprotect_gate  (** mprotect: victim toggles shared page permissions. *)

type race_result = {
  rr_probes : int;  (** attacker loads issued *)
  rr_hits : int;  (** probes that read {e something} (no fault) *)
  rr_leaks : int;  (** probes that read the secret value *)
  rr_faults : int;  (** probes that faulted (skipped) *)
}

val race_gate_window :
  ?iters:int ->
  ?spin:int ->
  ?probes:int ->
  gate:gate ->
  secret:int ->
  unit ->
  race_result
(** Defaults: 8 victim open/close iterations with an 80-instruction spin
    inside the window, 400 attacker probes. The two cores interleave in
    50-instruction quanta. The machine is private to the call and runs to
    completion deterministically. *)
