(** Control-flow graphs and a generic forward-dataflow solver.

    The reusable analysis substrate behind program verification
    ({!Memsentry.Gate_analysis}) and a foundation for flow-sensitive IR
    optimisation: CFG construction with successors/predecessors,
    reverse-postorder, iterative dominators, and a worklist fixpoint over
    a user-supplied join-semilattice.

    Two front ends share the one graph representation: {!of_func} builds
    the CFG of an IR function (nodes are its basic blocks), and
    {!of_program} recovers basic blocks from an assembled
    {!X86sim.Program} (branch targets resolved by the assembler, plus
    {e secondary entry points} — direct-call targets and address-taken
    labels — so callee bodies are analyzed under a havocked entry state
    instead of being treated as dead code). *)

type graph = {
  nnodes : int;
  entries : int list;  (** analysis roots; dataflow starts here *)
  succs : int list array;
  preds : int list array;  (** derived from [succs] *)
}

val graph : nnodes:int -> entries:int list -> succs:(int -> int list) -> graph
(** Build a graph; predecessor lists are derived. Successor lists may
    contain duplicates (a two-armed branch to one label); they are kept. *)

val reachable : graph -> bool array
(** Reachable from any entry. *)

val rpo : graph -> int list
(** Reachable nodes in reverse postorder (entries first). *)

val idom : graph -> int array
(** Immediate dominators over the multi-entry graph (a virtual root above
    all entries, Cooper–Harvey–Kennedy iteration). [idom.(n)] is [-1] for
    entries and unreachable nodes. *)

val dominates : int array -> int -> int -> bool
(** [dominates idoms a b]: does [a] dominate [b]? (Reflexive.) *)

val back_edges : graph -> (int * int) list
(** Natural-loop back edges: graph edges [u -> v] where [v] dominates
    [u]. *)

type loop = {
  header : int;
  body : int list;  (** ascending node ids, header included *)
  latches : int list;  (** sources of the back edges into [header] *)
  parent : int option;  (** index (in the returned list) of the innermost enclosing loop *)
  depth : int;  (** nesting depth; 1 = outermost *)
}

val natural_loops : graph -> loop list
(** One loop per header: all back edges sharing a header are merged, the
    body is the header plus every node that reaches a latch backwards
    without passing through the header. Irreducible cycles (no dominating
    header) produce no back edge and are not reported — consumers must
    treat absence conservatively. *)

val loop_depth_of_node : graph -> loop list -> int -> int
(** [loop_depth_of_node g loops] returns a lookup: the nesting depth of
    the innermost loop containing a node (0 = not in any loop). *)

val solve :
  graph ->
  entry_state:'st ->
  join:('st -> 'st -> 'st) ->
  equal:('st -> 'st -> bool) ->
  transfer:(int -> 'st -> 'st) ->
  'st option array
(** Forward worklist fixpoint. Every entry node starts at [entry_state];
    [transfer n s] is the whole-node transfer function. Returns the
    fixpoint {e in}-state per node; [None] marks unreachable nodes
    (bottom). Termination requires the usual monotone-transfer /
    finite-height conditions from the caller. *)

(** {2 x86 program front end} *)

type span = { first : int; last : int }
(** Inclusive instruction-index range of one basic block. *)

type prog_cfg = {
  graph : graph;
  spans : span array;  (** indexed by node id, in code order *)
  block_of : int array;  (** instruction index -> node id *)
  prog : X86sim.Program.t;
}

val of_program : X86sim.Program.t -> prog_cfg
(** Leaders: instruction 0, every label, every branch target, and every
    instruction following a terminator ([jmp]/[jcc]/[ret]/[hlt]/indirect
    jump). Edges: branch targets and fall-through; calls fall through
    (callee effects are the analysis' transfer-function concern);
    [ret]/[hlt]/indirect jumps end their path. Entries: the block of
    instruction 0, plus every direct-call target and every address-taken
    label ([Mov_label]) — the places control can enter with no incoming
    edge state. *)

val insns_of : prog_cfg -> int -> (int * X86sim.Insn.t) list
(** The (index, instruction) list of one block. *)

(** {2 IR front end} *)

type func_cfg = {
  fgraph : graph;
  fblocks : Ir_types.block array;  (** indexed by node id, in source order *)
}

val of_func : Ir_types.func -> func_cfg
(** Nodes are the function's basic blocks (entry = block 0); edges follow
    [Br]/[Cbr] terminators. *)
