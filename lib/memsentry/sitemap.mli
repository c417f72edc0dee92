(** Gate-site map: which instructions of an instrumented program belong to
    which instrumentation site, and in what role.

    A {e site} is one static location where an instrumentation pass
    inserted code — a domain-switch pair around a switch point, or a
    pointer check before an access. The passes in {!Instr} allocate one
    site per rewritten location and tag every inserted instruction with
    [(site id, role)], keyed by the instruction's final index in the
    assembled program — so any observed [rip] (from a step hook or a typed
    {!X86sim.Event.t}) maps straight back to the responsible site. This is
    the repo's analogue of the paper's PIN-based attribution of overhead
    to individual gates (§5.5). *)

type role =
  | Gate_open  (** part of an [enter] sequence (domain opens). *)
  | Gate_close  (** part of a [leave] sequence. *)
  | Check  (** part of an address-based check/masking sequence. *)
  | Hoisted_check
      (** a check {!Memsentry.Gate_opt} moved to a loop preheader; counted
          like [Check] by the profiler but attributable to the motion. *)

val role_name : role -> string

type site = {
  id : int;  (** dense, 0-based, in pass emission order. *)
  label : string;  (** e.g. ["mpk-switch"], ["mpx-check"]. *)
  technique : string;  (** {!Technique.name} of the inserting pass. *)
  orig_rip : int;
      (** Final index of the original instruction this site guards (the
          switch point or the rewritten access). *)
}

type t

val create : unit -> t

val new_site : t -> label:string -> technique:string -> orig_rip:int -> int
(** Allocate the next site; returns its id. *)

val tag : t -> rip:int -> site:int -> role:role -> unit

val classify : t -> int -> (int * role) option
(** [(site id, role)] of an instruction index, or [None] for application
    code. Allocates its result; hot paths read {!class_map} instead. *)

val lookup : t -> int -> (site * role) option

val site : t -> int -> site
(** Raises [Invalid_argument] for out-of-range ids. *)

val sites : t -> site list
(** In id order. *)

val n_sites : t -> int
val tagged_instructions : t -> int

(** {2 The per-rip class map}

    The form the core checks before every instruction (see
    {!X86sim.Cpu.set_site_rows}). *)

val class_map : t -> code_length:int -> int array
(** One class per instruction index in [[0, code_length)]: 0 for
    application code, and for an instruction of site [id] in role [r] a
    class whose pipeline row is [id + 1] (row 0 is the application row)
    and whose tag is the role. Two instructions have equal classes
    exactly when {!classify} gives them equal results, so a class
    transition is a change of [(site, role)]. *)

val class_site : int -> int
(** The site id of a non-zero class from {!class_map}. *)

val class_role : int -> role
(** The role of a non-zero class from {!class_map}. *)
val to_json : t -> Ms_util.Json.t
