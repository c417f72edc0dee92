type tier = {
  formed_count : int;
  covered_insns : int;
  inline_hits : int;
  inline_misses : int;
}

let empty = { formed_count = 0; covered_insns = 0; inline_hits = 0; inline_misses = 0 }

type stat = { t_execs : int; t_side_exits : int }

let stats (_ : tier) : stat list = []
