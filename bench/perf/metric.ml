(* A named, unit-carrying measurement with the samples it summarises. *)

open Ms_util

type t = {
  name : string;
  unit : string;
  value : float;  (** the reported summary (usually the median of [samples]) *)
  samples : float list;  (** one value per repetition or simulation *)
}

let median = function [] -> 0.0 | xs -> Stats.median xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads printed here match the
   ones a reader recomputes from the JSON. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Inter-quartile range as a share of the median (0 for a single sample). *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let of_samples name unit samples = { name; unit; value = median samples; samples }
let single name unit value = { name; unit; value; samples = [ value ] }

let to_json m =
  Json.Obj
    [
      ("value", Json.Float m.value);
      ("unit", Json.String m.unit);
      ("n", Json.Int (List.length m.samples));
      ("spread", Json.Float (spread m.samples));
      ("samples", Json.List (List.map (fun v -> Json.Float v) m.samples));
    ]

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> invalid_arg "expected a number"

let of_json name j =
  let field k = match Json.member k j with Some v -> v | None -> invalid_arg ("missing " ^ k) in
  let samples = match field "samples" with Json.List l -> List.map num l | _ -> [] in
  let unit = match field "unit" with Json.String s -> s | _ -> "" in
  { name; unit; value = num (field "value"); samples }

let print m =
  let q1, q3 = quartiles m.samples in
  if List.length m.samples > 1 then
    Printf.printf "  %-32s %14.6g %-7s (%d samples: q1 %.6g, median %.6g, q3 %.6g)\n" m.name m.value
      m.unit (List.length m.samples) q1 (median m.samples) q3
  else Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit
