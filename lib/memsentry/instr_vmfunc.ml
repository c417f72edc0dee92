open X86sim

let preserving seq =
  [ Insn.Push Reg.rax; Insn.Push Reg.rcx ] @ seq @ [ Insn.Pop Reg.rcx; Insn.Pop Reg.rax ]

let enter = preserving (Vmx.Hypervisor.vmfunc_seq ~ept:Vmx.Sandbox.sensitive_ept)
let leave = preserving (Vmx.Hypervisor.vmfunc_seq ~ept:Vmx.Sandbox.nonsensitive_ept)

let setup cpu regions =
  let hv = Vmx.Sandbox.enter cpu in
  List.iter
    (fun (r : Safe_region.region) ->
      Vmx.Hypervisor.mark_secret hv ~va:r.Safe_region.va ~len:r.Safe_region.size
        ~ept:Vmx.Sandbox.sensitive_ept)
    regions;
  Vmx.Sandbox.prefault_all hv;
  hv
