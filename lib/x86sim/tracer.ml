type entry = { seq : int; rip : int; insn : Insn.t }

type t = {
  cpu : Cpu.t;
  ring : entry option array;
  mutable next : int;
  mutable count : int;
  mutable hook : int option;
}

let attach ?(capacity = 256) ?(filter = fun _ -> true) cpu =
  if capacity <= 0 then invalid_arg "Tracer.attach: capacity must be positive";
  let t = { cpu; ring = Array.make capacity None; next = 0; count = 0; hook = None } in
  let id =
    Cpu.add_step_hook cpu (fun c insn ->
        if filter insn then begin
          t.ring.(t.next) <- Some { seq = t.count; rip = c.Cpu.rip; insn };
          t.next <- (t.next + 1) mod capacity;
          t.count <- t.count + 1
        end)
  in
  t.hook <- Some id;
  t

let detach t =
  match t.hook with
  | Some id ->
    Cpu.remove_step_hook t.cpu id;
    t.hook <- None
  | None -> ()

let entries t =
  let cap = Array.length t.ring in
  let ordered = ref [] in
  for k = 0 to cap - 1 do
    match t.ring.((t.next + cap - 1 - k) mod cap) with
    | Some e -> ordered := e :: !ordered
    | None -> ()
  done;
  !ordered

let total t = t.count

let to_string t =
  String.concat "\n"
    (List.map
       (fun e -> Printf.sprintf "%8d  @%-6d %s" e.seq e.rip (Insn.to_string_named e.insn))
       (entries t))

(* {2 Domain-residency spans} *)

type span = {
  gate : Event.gate;
  enter_rip : int;
  exit_rip : int;
  enter_cycles : float;
  exit_cycles : float;
  depth : int;
  closed : bool;
}

let span_cycles s = s.exit_cycles -. s.enter_cycles

type open_span = { o_gate : Event.gate; o_rip : int; o_cycles : float }

type spans = {
  s_cpu : Cpu.t;
  mutable stack : open_span list;
  mutable done_ : span list;  (** reverse completion order *)
  mutable unmatched_exits : int;
  mutable s_hook : int option;
}

let record_spans cpu =
  let t =
    { s_cpu = cpu; stack = []; done_ = []; unmatched_exits = 0; s_hook = None }
  in
  let on_event ev =
    match ev with
    | Event.Gate_enter { rip; gate } ->
      t.stack <- { o_gate = gate; o_rip = rip; o_cycles = Cpu.cycles cpu } :: t.stack
    | Event.Gate_exit { rip; _ } -> (
      match t.stack with
      | o :: rest ->
        t.stack <- rest;
        t.done_ <-
          {
            gate = o.o_gate;
            enter_rip = o.o_rip;
            exit_rip = rip;
            enter_cycles = o.o_cycles;
            exit_cycles = Cpu.cycles cpu;
            depth = List.length rest;
            closed = true;
          }
          :: t.done_
      | [] -> t.unmatched_exits <- t.unmatched_exits + 1)
    | Event.Fault _ | Event.Tlb_miss _ | Event.Cache_miss _ | Event.Vm_exit _ -> ()
  in
  t.s_hook <- Some (Cpu.add_event_hook cpu on_event);
  t

let stop t =
  (match t.s_hook with
  | Some id ->
    Cpu.remove_event_hook t.s_cpu id;
    t.s_hook <- None
  | None -> ());
  (* Close still-open residencies at the current clock so a program that
     halts inside the sensitive domain still accounts for the time. *)
  let now = Cpu.cycles t.s_cpu in
  List.iteri
    (fun i o ->
      t.done_ <-
        {
          gate = o.o_gate;
          enter_rip = o.o_rip;
          exit_rip = o.o_rip;
          enter_cycles = o.o_cycles;
          exit_cycles = now;
          depth = List.length t.stack - 1 - i;
          closed = false;
        }
        :: t.done_)
    t.stack;
  t.stack <- []

let spans t = List.rev t.done_
let unmatched_exits t = t.unmatched_exits
let open_spans t = List.length t.stack
