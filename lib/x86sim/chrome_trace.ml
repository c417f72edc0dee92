module J = Ms_util.Json

(* Nested residency spans render on one Perfetto track per nesting depth;
   tid 1 is the outermost domain entry. *)
let tid_of (s : Tracer.span) = s.Tracer.depth + 1

let span_event ?(annotate = fun _ -> []) (s : Tracer.span) =
  let args =
    [
      ("enter_rip", J.Int s.Tracer.enter_rip);
      ("exit_rip", J.Int s.Tracer.exit_rip);
      ("depth", J.Int s.Tracer.depth);
      ("closed", J.Bool s.Tracer.closed);
    ]
    @ annotate s
  in
  J.Obj
    [
      ("name", J.String (Event.gate_name s.Tracer.gate));
      ("cat", J.String "domain-residency");
      ("ph", J.String "X");
      (* The trace-event clock is microseconds; we map one simulated cycle
         to one "microsecond" so durations read directly as cycles. *)
      ("ts", J.Float s.Tracer.enter_cycles);
      ("dur", J.Float (Tracer.span_cycles s));
      ("pid", J.Int 1);
      ("tid", J.Int (tid_of s));
      ("args", J.Obj args);
    ]

let metadata_event ~name ~tid ~args =
  J.Obj
    [
      ("name", J.String name);
      ("ph", J.String "M");
      ("pid", J.Int 1);
      ("tid", J.Int tid);
      ("args", J.Obj args);
    ]

(* One thread_name/thread_sort_index pair per depth present in the trace,
   so Perfetto labels each nesting level and keeps them in depth order. *)
let thread_metadata spans =
  let tids = List.sort_uniq compare (List.map tid_of spans) in
  List.concat_map
    (fun tid ->
      let label =
        if tid = 1 then "safe-region residency"
        else Printf.sprintf "safe-region residency (depth %d)" (tid - 1)
      in
      [
        metadata_event ~name:"thread_name" ~tid ~args:[ ("name", J.String label) ];
        metadata_event ~name:"thread_sort_index" ~tid
          ~args:[ ("sort_index", J.Int tid) ];
      ])
    (if tids = [] then [ 1 ] else tids)

let to_json ?(process_name = "memsentry-sim") ?annotate spans =
  let events =
    metadata_event ~name:"process_name" ~tid:1
      ~args:[ ("name", J.String process_name) ]
    :: metadata_event ~name:"process_sort_index" ~tid:1
         ~args:[ ("sort_index", J.Int 1) ]
    :: (thread_metadata spans @ List.map (span_event ?annotate) spans)
  in
  J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ]

let to_string ?process_name ?annotate spans =
  J.to_string ~pretty:true (to_json ?process_name ?annotate spans)

let write ?process_name ?annotate ~file spans =
  J.to_file file (to_json ?process_name ?annotate spans)
