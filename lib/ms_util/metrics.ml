(* Log-scaled histogram: bucket i holds observations whose log_gamma rounds
   to i, so every bucket's representative value gamma^i is within
   sqrt(gamma) of any member. gamma = 2^(1/8) gives ~4.5% relative error
   and ~266 buckets over the full positive float range actually used. *)
let gamma = Float.pow 2.0 0.125
let log_gamma = Float.log gamma

type t = {
  buckets : (int, int ref) Hashtbl.t;
  mutable zeros : int;  (* non-positive / non-finite observations *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmax : float;
}

let create () = { buckets = Hashtbl.create 32; zeros = 0; hcount = 0; hsum = 0.0; hmax = 0.0 }

let bucket_of v = int_of_float (Float.round (Float.log v /. log_gamma))

let representative i = Float.pow gamma (float_of_int i)

let observe h v =
  h.hcount <- h.hcount + 1;
  if Float.is_nan v || v <= 0.0 || v = Float.infinity then h.zeros <- h.zeros + 1
  else begin
    h.hsum <- h.hsum +. v;
    if v > h.hmax then h.hmax <- v;
    let b = bucket_of v in
    match Hashtbl.find_opt h.buckets b with
    | Some r -> r := !r + 1
    | None -> Hashtbl.add h.buckets b (ref 1)
  end

let count h = h.hcount
let sum h = h.hsum
let mean h = if h.hcount = 0 then 0.0 else h.hsum /. float_of_int h.hcount

let percentile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Metrics.percentile: p out of range";
  if h.hcount = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.hcount))) in
    if rank <= h.zeros then 0.0
    else begin
      let ordered =
        List.sort compare (Hashtbl.fold (fun b r acc -> (b, !r) :: acc) h.buckets [])
      in
      let rec walk cumulative = function
        | [] -> h.hmax (* rank beyond the last bucket: numeric slack *)
        | (b, n) :: rest ->
          let cumulative = cumulative + n in
          if rank <= cumulative then representative b else walk cumulative rest
      in
      walk h.zeros ordered
    end
  end

let p50 h = percentile h 50.0
let p95 h = percentile h 95.0
let p99 h = percentile h 99.0
