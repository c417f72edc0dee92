(* Calibration regression: the properties of the paper's figures that this
   reproduction promises ("who wins, by roughly what factor, where the
   crossovers fall") asserted as tests, so timing-model changes that break
   a shape fail CI rather than silently corrupting EXPERIMENTS.md.

   Uses a 6-benchmark subset and modest iteration counts; bands are wide
   on purpose — they guard shapes, not third decimals. *)

open Memsentry

let iterations = 15

let subset () =
  List.map Workloads.Spec2006.find
    [ "perlbench"; "mcf"; "povray"; "hmmer"; "lbm"; "xalancbmk" ]

let geomean_for cfg =
  Ms_util.Stats.geomean
    (List.map (fun p -> Workloads.Runner.overhead_of ~iterations p cfg) (subset ()))

let in_band what lo v hi =
  Alcotest.(check bool) (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" what v lo hi) true
    (v >= lo && v <= hi)

(* Figure 3: MPX below SFI in every variant; writes cheaper than reads. *)
let test_fig3_shape () =
  let o kind tech = geomean_for (Framework.config ~address_kind:kind tech) in
  let mpx_w = o Instr.Writes Technique.Mpx
  and sfi_w = o Instr.Writes Technique.Sfi
  and mpx_r = o Instr.Reads Technique.Mpx
  and sfi_r = o Instr.Reads Technique.Sfi
  and mpx_rw = o Instr.Reads_and_writes Technique.Mpx
  and sfi_rw = o Instr.Reads_and_writes Technique.Sfi in
  in_band "MPX-w" 1.0 mpx_w 1.08;
  in_band "SFI-w" 1.0 sfi_w 1.12;
  in_band "MPX-r" 1.02 mpx_r 1.20;
  in_band "SFI-r" 1.05 sfi_r 1.35;
  Alcotest.(check bool) "MPX <= SFI (w)" true (mpx_w <= sfi_w +. 0.005);
  Alcotest.(check bool) "MPX < SFI (r)" true (mpx_r < sfi_r);
  Alcotest.(check bool) "MPX < SFI (rw)" true (mpx_rw < sfi_rw);
  Alcotest.(check bool) "writes cheaper than reads" true (mpx_w < mpx_r && sfi_w < sfi_r)

(* Figure 4 (call/ret): MPK < crypt < VMFUNC at the geomean; magnitudes in
   the paper's neighbourhood. *)
let test_fig4_shape () =
  let o tech = geomean_for (Framework.config ~switch_policy:Instr.At_call_ret tech) in
  let mpk = o (Technique.Mpk Mpk.Pkey.No_access)
  and vmfunc = o Technique.Vmfunc
  and crypt = o Technique.Crypt in
  in_band "MPK" 1.5 mpk 3.2;
  in_band "VMFUNC" 2.8 vmfunc 6.5;
  in_band "crypt" 1.7 crypt 4.2;
  Alcotest.(check bool) "MPK cheapest" true (mpk < crypt && mpk < vmfunc);
  Alcotest.(check bool) "VMFUNC dearest" true (vmfunc > crypt)

(* Figure 6 (syscalls): the crossover flips — crypt becomes the worst
   because of the register reservation, MPK is near-free. *)
let test_fig6_crossover () =
  let o tech = geomean_for (Framework.config ~switch_policy:Instr.At_syscalls tech) in
  let mpk = o (Technique.Mpk Mpk.Pkey.No_access)
  and vmfunc = o Technique.Vmfunc
  and crypt = o Technique.Crypt in
  in_band "MPK" 0.99 mpk 1.03;
  in_band "VMFUNC" 1.0 vmfunc 1.10;
  in_band "crypt" 1.05 crypt 1.45;
  Alcotest.(check bool) "crypt worst at syscall granularity" true
    (crypt > mpk && crypt > vmfunc)

(* The mprotect baseline must stay catastrophic (paper: 20-50x). *)
let test_mprotect_band () =
  let prof = Workloads.Spec2006.find "perlbench" in
  let o =
    Workloads.Runner.overhead_of ~iterations prof
      (Framework.config ~switch_policy:Instr.At_call_ret Technique.Mprotect)
  in
  in_band "mprotect on perlbench" 15.0 o 120.0

(* crypt cost grows superlinearly in switch-point terms with region size. *)
let test_crypt_scaling_monotone () =
  let prof = Workloads.Spec2006.find "hmmer" in
  let run size =
    let base = Workloads.Runner.run_baseline ~iterations prof in
    let cfg = Framework.config ~switch_policy:Instr.At_call_ret Technique.Crypt in
    let p = Framework.prepare cfg (Workloads.Runner.lowered ~iterations ~region_size:size prof cfg) in
    ignore (Framework.run p);
    X86sim.Cpu.cycles p.Framework.cpu /. base.Workloads.Runner.cycles
  in
  let o16 = run 16 and o256 = run 256 in
  Alcotest.(check bool)
    (Printf.sprintf "16B %.1f < 256B %.1f" o16 o256)
    true
    (o256 > 2.0 *. o16)

(* lbm (zero calls, fp-heavy) stays near 1.0 for MPK/VMFUNC under call/ret
   switching but pays crypt's register reservation — the per-benchmark
   texture behind the Figure 4 outliers. *)
let test_lbm_texture () =
  let prof = Workloads.Spec2006.find "lbm" in
  let o tech =
    Workloads.Runner.overhead_of ~iterations prof
      (Framework.config ~switch_policy:Instr.At_call_ret tech)
  in
  in_band "lbm MPK" 0.99 (o (Technique.Mpk Mpk.Pkey.No_access)) 1.1;
  in_band "lbm VMFUNC" 0.99 (o Technique.Vmfunc) 1.15;
  in_band "lbm crypt (register reservation)" 1.5 (o Technique.Crypt) 4.5

let suite =
  [
    Alcotest.test_case "fig3 shape" `Slow test_fig3_shape;
    Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
    Alcotest.test_case "fig6 crossover" `Slow test_fig6_crossover;
    Alcotest.test_case "mprotect band" `Slow test_mprotect_band;
    Alcotest.test_case "crypt scaling" `Slow test_crypt_scaling_monotone;
    Alcotest.test_case "lbm texture" `Slow test_lbm_texture;
  ]
