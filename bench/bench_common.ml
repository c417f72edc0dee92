(* Shared helpers for the figure/table harnesses. *)

open Ms_util
open Memsentry

let iterations = ref 40

(* Worker domains for the figure/table sweeps. Each (benchmark, config)
   simulation owns its Cpu.t, so they fan out safely; results are joined
   in deterministic order, making the output independent of [jobs]. *)
let jobs = ref 1

(* vCPU count for the multi-core targets (servers). 1 keeps every golden
   byte-identical to the single-core harness; >1 additionally runs the
   SMP sweep on machines with up to this many cores. *)
let vcpus = ref 1

(* JSON accumulator for --json: targets record their results here and
   main.exe writes one object at exit. Recording is unconditional — it is
   cheap, and only main decides whether a file gets written. *)
let json_results : (string * Json.t) list ref = ref []

let record_json name j = json_results := (name, j) :: !json_results

let results_json () =
  Json.Obj [ ("iterations", Json.Int !iterations); ("results", Json.Obj (List.rev !json_results)) ]

let write_json file = Json.to_file file (results_json ())

(* Set by a target whose checks failed; main.exe exits 1 once the JSON
   file is written. *)
let failed = ref false

(* Strip the numeric SPEC prefix for compact rows. *)
let short name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Run a sweep and print it as one figure: benchmarks as rows, configs as
   columns, geomean + the paper's reference geomeans at the bottom. With
   [name], the figure's data is also recorded for --json. *)
let print_figure ?name ~title ~configs ~paper_geomeans () =
  let rows =
    Workloads.Runner.sweep ~iterations:!iterations ~jobs:!jobs Workloads.Spec2006.all configs
  in
  let headers = "benchmark" :: List.map fst configs in
  let t = Table_fmt.create headers in
  List.iter
    (fun (bench, row) ->
      Table_fmt.add_row t (short bench :: List.map (fun (_, v) -> Table_fmt.cell_f v) row))
    rows;
  Table_fmt.add_sep t;
  let geo = Workloads.Runner.geomean_overheads rows in
  Table_fmt.add_row t ("geomean" :: List.map (fun (_, v) -> Table_fmt.cell_f v) geo);
  Table_fmt.add_row t
    ("paper geomean" :: List.map (fun v -> Table_fmt.cell_f v) paper_geomeans);
  Printf.printf "%s\n(normalized run time; 1.00 = uninstrumented baseline)\n" title;
  Table_fmt.print t;
  print_newline ();
  (match name with
  | None -> ()
  | Some name ->
    let overheads row = Json.Obj (List.map (fun (c, v) -> (c, Json.Float v)) row) in
    record_json name
      (Json.Obj
         [
           ("title", Json.String title);
           ( "rows",
             Json.List
               (List.map
                  (fun (bench, row) ->
                    Json.Obj
                      [ ("benchmark", Json.String bench); ("overheads", overheads row) ])
                  rows) );
           ("geomean", overheads geo);
           ( "paper_geomean",
             overheads (List.combine (List.map fst configs) paper_geomeans) );
         ]));
  geo

let mpk_cfg policy = Framework.config ~switch_policy:policy (Technique.Mpk Mpk.Pkey.No_access)
let vmfunc_cfg policy = Framework.config ~switch_policy:policy Technique.Vmfunc
let crypt_cfg policy = Framework.config ~switch_policy:policy Technique.Crypt

let domain_configs policy =
  [ ("MPK", mpk_cfg policy); ("VMFUNC", vmfunc_cfg policy); ("crypt", crypt_cfg policy) ]

(* The fig3-fig6 corpus as the verifier and the check-motion optimizer
   sweep it: the seven address-based builds, then the three domain-based
   techniques under each switch policy. (fig3.ml keeps its own column
   order, which the golden pins.) *)
let corpus_configs =
  [
    ("SFI-w", Framework.config ~address_kind:Instr.Writes Technique.Sfi);
    ("SFI-r", Framework.config ~address_kind:Instr.Reads Technique.Sfi);
    ("SFI-rw", Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi);
    ("MPX-w", Framework.config ~address_kind:Instr.Writes Technique.Mpx);
    ("MPX-r", Framework.config ~address_kind:Instr.Reads Technique.Mpx);
    ("MPX-rw", Framework.config ~address_kind:Instr.Reads_and_writes Technique.Mpx);
    ("ISBox-rw", Framework.config ~address_kind:Instr.Reads_and_writes Technique.Isboxing);
  ]
  @ List.concat_map
      (fun (pname, policy) ->
        List.map
          (fun (tname, cfg) -> (Printf.sprintf "%s@%s" tname pname, cfg))
          (domain_configs policy))
      [
        ("call-ret", Instr.At_call_ret);
        ("indirect", Instr.At_indirect_branches);
        ("syscall", Instr.At_syscalls);
      ]
