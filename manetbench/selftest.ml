(* Fast self-test of the benchmark at toy sizes: every workload named in
   BENCHMARK.json runs untraced and traced, and each result must parse
   and carry exactly the metrics BENCHMARK.json names, each with its
   unit; then a run given a corrupted expected digest must fail its
   checks and count every operation as failed. *)

module Json = Manetsec.Obs_json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("self-test: " ^ m))
    fmt

let member k j = match Json.member k j with Some v -> v | None -> Json.Null

let list k j = Option.value ~default:[] (Json.to_list_opt (member k j))

let str k j = Option.value ~default:"" (Json.to_string_opt (member k j))

let metric_units spec group =
  List.map (fun m -> (str "name" m, str "unit" m)) (list group spec)

(* The printed form, parsed back: what the driver sees. *)
let printed o = Json.parse (Json.to_string (Report.result_json o))

let check_schema ~workload ~group expected o =
  let res = printed o in
  let metrics = match member "metrics" res with Json.Obj kv -> kv | _ -> [] in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> fail "%s %s: metric %s missing" workload group name
      | Some m ->
          if str "unit" m <> unit then
            fail "%s %s: %s unit %S, BENCHMARK.json says %S" workload group name
              (str "unit" m) unit;
          if Json.to_float_opt (member "value" m) = None then
            fail "%s %s: %s has no numeric value" workload group name)
    expected;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name expected) then
        fail "%s %s: metric %s is not in BENCHMARK.json" workload group name)
    metrics;
  if member "correct" res <> Json.Bool true then
    fail "%s %s: checks failed: %s" workload group (String.concat "; " o.Measure.errors);
  match (Json.to_int_opt (member "attempted" res), Json.to_int_opt (member "failed" res)) with
  | Some a, Some 0 when a >= 1 -> ()
  | _ -> fail "%s %s: bad attempted/failed counts" workload group

let run file =
  let spec = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  let e2e = metric_units spec "end_to_end" and layers = metric_units spec "per_layer" in
  List.iter
    (fun wj ->
      let name = str "name" wj in
      match Workload.find ~toy:true name with
      | None -> fail "workload %s is not defined" name
      | Some w ->
          let go trace = Measure.run w ~seed:3 ~seconds:0.0 ~trace ~expected:None in
          check_schema ~workload:name ~group:"end_to_end" e2e (go false);
          check_schema ~workload:name ~group:"per_layer" layers (go true))
    (list "workloads" spec);
  (match Workload.find ~toy:true "routing_mobile30" with
  | None -> ()
  | Some w ->
      let o =
        Measure.run w ~seed:3 ~seconds:0.0 ~trace:false ~expected:(Some (String.make 64 '0'))
      in
      let res = printed o in
      if member "correct" res <> Json.Bool false then
        fail "a corrupted digest passed the checks";
      if member "failed" res <> member "attempted" res then
        fail "a corrupted digest did not fail every operation";
      let ok_frac =
        Option.bind (Json.member "ok_frac" (member "metrics" res)) (fun m ->
            Json.to_float_opt (member "value" m))
      in
      if ok_frac <> Some 0.0 then fail "a corrupted digest left ok_frac above 0");
  if !failures = 0 then print_endline "self-test: ok";
  if !failures = 0 then 0 else 1
