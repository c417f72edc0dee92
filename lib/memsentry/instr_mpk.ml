let key = 1

let close cpu ~protection = Mpk.Pkey.close_default cpu ~key ~protection

let setup cpu ~protection regions =
  List.iter
    (fun (r : Safe_region.region) ->
      Mpk.Pkey.assign cpu ~va:r.Safe_region.va ~len:r.Safe_region.size ~key)
    regions;
  close cpu ~protection

let enter = Mpk.Pkey.open_seq_preserving

let leave ~protection = Mpk.Pkey.close_seq_preserving ~key ~protection
