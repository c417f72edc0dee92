type role = Gate_open | Gate_close | Check | Hoisted_check

let role_name = function
  | Gate_open -> "gate-open"
  | Gate_close -> "gate-close"
  | Check -> "check"
  | Hoisted_check -> "hoisted-check"

type site = { id : int; label : string; technique : string; orig_rip : int }

type t = {
  mutable sites_rev : site list;
  mutable n : int;
  by_rip : (int, int * role) Hashtbl.t;
}

let create () = { sites_rev = []; n = 0; by_rip = Hashtbl.create 64 }

let new_site t ~label ~technique ~orig_rip =
  let s = { id = t.n; label; technique; orig_rip } in
  t.sites_rev <- s :: t.sites_rev;
  t.n <- t.n + 1;
  s.id

let tag t ~rip ~site ~role = Hashtbl.replace t.by_rip rip (site, role)

let n_sites t = t.n
let sites t = List.rev t.sites_rev

let site t id =
  if id < 0 || id >= t.n then invalid_arg "Sitemap.site: no such site";
  List.nth t.sites_rev (t.n - 1 - id)

let classify t rip = Hashtbl.find_opt t.by_rip rip

let lookup t rip =
  match classify t rip with Some (id, role) -> Some (site t id, role) | None -> None

let tagged_instructions t = Hashtbl.length t.by_rip

let role_tag = function Gate_open -> 0 | Gate_close -> 1 | Check -> 2 | Hoisted_check -> 3

let class_map t ~code_length =
  let map = Array.make code_length 0 in
  Hashtbl.iter
    (fun rip (id, role) ->
      if rip >= 0 && rip < code_length then
        map.(rip) <- X86sim.Cpu.site_class ~row:(id + 1) ~tag:(role_tag role))
    t.by_rip;
  map

let class_site cls = X86sim.Cpu.class_row cls - 1

let class_role cls =
  match X86sim.Cpu.class_tag cls with
  | 0 -> Gate_open
  | 1 -> Gate_close
  | 2 -> Check
  | _ -> Hoisted_check

let to_json t =
  let open Ms_util.Json in
  Obj
    [
      ( "sites",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("label", String s.label);
                   ("technique", String s.technique);
                   ("orig_rip", Int s.orig_rip);
                 ])
             (sites t)) );
      ("tagged_instructions", Int (tagged_instructions t));
    ]
