(* Code-size overhead: an extension metric. Run-time cost is only half of
   an instrumentation's price — every inserted check also grows the text
   segment (i-cache pressure, binary distribution size). Address-based
   techniques pay per memory access; domain-based techniques pay per
   switch point, with crypt's inline AES sequences by far the largest. *)

open Ms_util
open Memsentry

let configs =
  [
    ("ISBoxing", Framework.config Technique.Isboxing);
    ("MPX-rw", Framework.config Technique.Mpx);
    ("SFI-rw", Framework.config Technique.Sfi);
    ("MPK c/r", Bench_common.mpk_cfg Instr.At_call_ret);
    ("VMFUNC c/r", Bench_common.vmfunc_cfg Instr.At_call_ret);
    ("crypt c/r", Bench_common.crypt_cfg Instr.At_call_ret);
  ]

let profiles () = List.map Workloads.Spec2006.find [ "perlbench"; "bzip2"; "povray"; "lbm" ]

(* Each build is lowered as the figures lower it, against the one
   full-pool baseline the figures normalize by. *)
let size_ratio ~base prof cfg =
  let plan = Framework.instrument cfg (Workloads.Runner.lowered ~iterations:2 prof cfg) in
  float_of_int (X86sim.Encode.program_bytes plan.Framework.program) /. float_of_int base

let run () =
  let t = Table_fmt.create ("benchmark" :: List.map fst configs) in
  let rows =
    List.map
      (fun prof ->
        let lowered = Workloads.Synth.lowered ~iterations:2 prof in
        let base = X86sim.Encode.items_bytes (Instr.strip lowered.Ir.Lower.mitems) in
        let row = List.map (fun (_, cfg) -> size_ratio ~base prof cfg) configs in
        Table_fmt.add_row t
          (Bench_common.short prof.Workloads.Profile.name
          :: List.map Table_fmt.cell_f row);
        row)
      (profiles ())
  in
  Table_fmt.add_sep t;
  let ncols = List.length configs in
  Table_fmt.add_row t
    ("geomean"
    :: List.init ncols (fun c ->
           Table_fmt.cell_f (Stats.geomean (List.map (fun r -> List.nth r c) rows))));
  print_endline "Code-size overhead (text bytes, instrumented / baseline)";
  Table_fmt.print t;
  print_newline ()
