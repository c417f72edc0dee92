(** What is left of the deleted superblock trace tier: a frozen, all-zero
    counter surface.

    The predecoded block tier ({!Ublock} chained by [Cpu.run]) is the only
    translated execution path. The engine benchmark under [bench/perf]
    still reads the old tier's counters and may only change together with
    its own baseline, so these types keep exactly the fields it compiles
    against. Nothing in the simulator writes them; they are removed with
    [Cpu.t.traces] in the next benchmark change. *)

type tier = {
  formed_count : int;
  covered_insns : int;
  inline_hits : int;
  inline_misses : int;
}

val empty : tier
(** The only value: every counter zero. *)

type stat = { t_execs : int; t_side_exits : int }

val stats : tier -> stat list
(** Always [[]]. *)
