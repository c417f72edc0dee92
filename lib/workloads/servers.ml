open Profile

let p ~name ~loads ~stores ~call_ret ~indirect ~syscalls ~fp_ops ~ws ~ilp ~seed =
  let prof =
    {
      name;
      loads;
      stores;
      call_ret;
      indirect;
      syscalls;
      io_bound = true;
      fp_ops;
      working_set_bits = ws;
      dep_chain = ilp;
      seed;
    }
  in
  validate prof;
  prof

let all =
  [
    (* Event-loop web server: epoll/read/write on most requests. *)
    p ~name:"nginx-like" ~loads:280 ~stores:120 ~call_ret:10 ~indirect:3 ~syscalls:6.0
      ~fp_ops:2 ~ws:21 ~ilp:Med_ilp ~seed:8001;
    (* In-memory KV store: tight dictionary loop, one I/O pair per command. *)
    p ~name:"redis-like" ~loads:340 ~stores:140 ~call_ret:8 ~indirect:2 ~syscalls:4.0
      ~fp_ops:1 ~ws:24 ~ilp:Low_ilp ~seed:8002;
    (* Slab-cache reads: large working set, short handlers. *)
    p ~name:"memcached-like" ~loads:320 ~stores:90 ~call_ret:6 ~indirect:2 ~syscalls:5.0
      ~fp_ops:1 ~ws:25 ~ilp:Med_ilp ~seed:8003;
    (* Query executor: call-heavy plan interpretation, buffered I/O. *)
    p ~name:"postgres-like" ~loads:310 ~stores:130 ~call_ret:16 ~indirect:5 ~syscalls:2.5
      ~fp_ops:4 ~ws:23 ~ilp:Med_ilp ~seed:8004;
  ]

let find short = List.find (fun prof -> prof.name = short) all

let names = List.map (fun prof -> prof.name) all
