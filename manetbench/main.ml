(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --record
     main.exe --self-test BENCHMARK.json

   The first form runs one workload for about S seconds and prints its
   result as the last line of standard output; see BENCHMARK.json for
   the workloads and metrics.  [--record] prints the digests to paste
   into digests.ml.  [--self-test] runs every workload at toy size and
   checks the output schema and the checks themselves. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --record\n\
    \       main.exe --self-test BENCHMARK.json";
  exit 2

let rec options acc = function
  | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let record () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun seed ->
          let p = Workload.run_pass w ~seed ~mode:Workload.untraced in
          Printf.printf "    ((%S, %d), %S);\n%!" w.name seed p.digest)
        [ Digests.default_seed; Digests.held_out_seed ])
    (Workload.all ~toy:false)

let run opts =
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  match Workload.find ~toy:false name with
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2
  | Some w ->
      let expected = Digests.find ~workload:name ~seed in
      Report.print (Measure.run w ~seed ~seconds ~trace ~expected)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--record" ] -> record ()
  | [ "--self-test"; file ] -> exit (Selftest.run file)
  | args -> run (options [] args)
