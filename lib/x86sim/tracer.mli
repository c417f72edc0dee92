(** Execution tracing and domain-residency spans — the machine-level
    analogue of the PIN instrumentation the paper uses for dynamic
    analysis (§5.5).

    The instruction tracer keeps the most recent [capacity] executed
    instructions in a ring buffer (optionally filtered), cheap enough to
    leave attached for a whole run; [entries] then reconstructs the tail
    of the execution — the first thing one wants when a simulated program
    misbehaves, and the mechanism behind the CLI's [trace] command.

    The span recorder subscribes to the CPU's typed {!Event.t} stream and
    pairs gate enters with gate exits into {e domain-residency spans}: the
    windows during which the safe region was accessible. Spans are what
    the Chrome-trace export renders and what the profiler feeds into
    residency histograms. *)

type entry = {
  seq : int;  (** 0-based position in the dynamic instruction stream *)
  rip : int;  (** instruction index *)
  insn : Insn.t;
}

type t

val attach : ?capacity:int -> ?filter:(Insn.t -> bool) -> Cpu.t -> t
(** Install on [cpu] (capacity defaults to 256) via {!Cpu.add_step_hook}.
    Tracing composes with any other step hooks — analyses, profilers and
    additional tracers all observe the same stream. *)

val detach : t -> unit
(** Remove the hook; the collected entries remain readable. *)

val entries : t -> entry list
(** Buffered entries, oldest first. *)

val total : t -> int
(** How many instructions matched the filter over the whole run (not just
    those still buffered). *)

val to_string : t -> string
(** One line per buffered entry: [seq rip insn]. *)

(** {2 Domain-residency spans} *)

type span = {
  gate : Event.gate;  (** The {e entering} gate; named at export. *)
  enter_rip : int;
  exit_rip : int;
  enter_cycles : float;
  exit_cycles : float;
  depth : int;  (** 0 = outermost; >0 inside another open residency. *)
  closed : bool;
      (** [false] when the program stopped with the domain still open and
          the span was force-closed by {!stop} at the final clock. *)
}

val span_cycles : span -> float
(** Residency duration, [exit_cycles - enter_cycles]. *)

type spans

val record_spans : Cpu.t -> spans
(** Subscribe to gate events and match enters to exits LIFO: an exit
    closes the most recent open enter (nesting — e.g. a crypt gate inside
    an MPK residency — yields inner spans with larger [depth]). Exits
    with no open enter are counted in {!unmatched_exits}, not paired. *)

val stop : spans -> unit
(** Unsubscribe and force-close any still-open spans at the current cycle
    count (marked [closed = false]). Idempotent. *)

val spans : spans -> span list
(** Completed spans in completion order ({!stop} appends force-closed
    ones last). *)

val unmatched_exits : spans -> int
(** Gate exits observed while no residency was open — a sign the program
    closes a domain it never opened (or that recording started mid-span). *)

val open_spans : spans -> int
(** Residencies currently open (0 after {!stop}). *)
