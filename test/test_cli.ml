(* Command-line robustness: a configuration the simulator cannot honour
   must end in one CLI error line and a non-zero exit, never in an
   uncaught exception with a backtrace. *)

(* The CLI binary sits beside this test's build directory. *)
let manetsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/manetsim.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs manetsim with [args]; returns (exit code, stdout, stderr). *)
let run_manetsim args =
  let out = Filename.temp_file "manetsim" ".out" in
  let err = Filename.temp_file "manetsim" ".err" in
  let code =
    Sys.command
      (String.concat " "
         ((manetsim :: List.map Filename.quote args)
         @ [ ">"; Filename.quote out; "2>"; Filename.quote err ]))
  in
  let result = (code, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_unconnectable_field () =
  (* The default random field grows only with sqrt n, so 400 nodes at
     the default radio range almost never form one component. *)
  List.iter
    (fun cmd ->
      let code, _, err = run_manetsim [ cmd; "-n"; "400" ] in
      Alcotest.(check bool) (cmd ^ ": non-zero exit") true (code <> 0);
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' err) in
      Alcotest.(check int) (cmd ^ ": one error line") 1 (List.length lines);
      Alcotest.(check bool) (cmd ^ ": names the range") true
        (contains err "radio range 250 m");
      Alcotest.(check bool) (cmd ^ ": names the field") true
        (contains err "4400x4400 m field");
      Alcotest.(check bool) (cmd ^ ": not an internal error") false
        (contains err "internal error" || contains err "exception"))
    [ "run"; "dad"; "attacks" ]

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "unconnectable field is a CLI error" `Quick
          test_unconnectable_field;
      ] );
  ]
