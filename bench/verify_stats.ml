(* Verification statistics over the fig3-fig6 instrumented corpora: every
   technique/config pair is instrumented exactly as the overhead figures
   build it, then pushed through the static verifier. The "violations"
   column being all-zero is the repo's standing proof that the
   instrumentation passes emit verifiable output. *)

open Ms_util
open Memsentry

let run () =
  let t =
    Table_fmt.create
      [
        "config"; "blocks"; "reach"; "checked"; "gates"; "guarded"; "violations"; "lints";
      ]
  in
  let clean = ref true in
  List.iter
    (fun (name, cfg) ->
      let blocks = ref 0
      and reach = ref 0
      and checked = ref 0
      and gates = ref 0
      and guarded = ref 0
      and viol = ref 0
      and lints = ref 0 in
      List.iter
        (fun prof ->
          let lowered = Workloads.Synth.lowered ~iterations:!Bench_common.iterations prof in
          match Framework.verify_prepared (Framework.prepare cfg lowered) with
          | None -> ()
          | Some r ->
            let s = r.Gate_analysis.stats in
            blocks := !blocks + s.Gate_analysis.blocks;
            reach := !reach + s.Gate_analysis.reachable_blocks;
            checked := !checked + s.Gate_analysis.checked_accesses;
            gates := !gates + s.Gate_analysis.proven_gates;
            guarded := !guarded + s.Gate_analysis.guarded_transfers;
            viol := !viol + List.length r.Gate_analysis.violations;
            lints := !lints + List.length r.Gate_analysis.lints)
        Workloads.Spec2006.all;
      if !viol > 0 then clean := false;
      Table_fmt.add_row t
        (name
        :: List.map string_of_int [ !blocks; !reach; !checked; !gates; !guarded; !viol; !lints ]))
    Bench_common.corpus_configs;
  print_endline
    "Verification statistics: fig3-fig6 instrumented corpora through the static verifier";
  print_endline "(sums over all SPEC-like workloads; fig3 = address-based, fig4-6 = domain-based)";
  Table_fmt.print t;
  Printf.printf "verdict: %s\n"
    (if !clean then "all configurations verify clean" else "VIOLATIONS FOUND")
