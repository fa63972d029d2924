(* The benchmark's output: span lines for a traced run, then one JSON
   result object as the last line of standard output. *)

module Json = Manetsec.Obs_json

let result_json (o : Measure.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             o.metrics) );
    ]

let print (o : Measure.outcome) =
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) o.errors;
  Option.iter
    (fun sp ->
      List.iter
        (fun s -> print_endline (Json.to_string (Spans.to_json sp s)))
        (Spans.spans sp))
    o.spans;
  print_endline (Json.to_string (result_json o))
