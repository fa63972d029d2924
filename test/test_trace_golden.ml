(* Golden digests of a small traced run.

   Every trace sink is switched on — the engine's ring-buffer trace and
   the JSONL event capture — and a 12-node secure-routing scenario runs
   a bootstrap, a node outage (re-DAD, route errors) and CBR traffic
   over promiscuous radios.  The SHA-256 digests (the repo's own
   [Sha256]) of the ring render, the trace JSONL and the sorted stats
   counters are pinned below, so any change to the text of a [tx.*] or
   protocol log line, to the set of lines, or to the counters fails
   here.  Refactors of the transmit and logging paths must leave all
   three byte-identical. *)

module Engine = Manetsec.Sim.Engine
module Trace = Manetsec.Sim.Trace
module Stats = Manetsec.Sim.Stats
module Sha256 = Manetsec.Crypto.Sha256
module Obs = Manetsec.Obs
module Scenario = Manetsec.Scenario
module Faults = Manetsec.Faults

let params =
  {
    Scenario.default_params with
    n = 12;
    seed = 1;
    promiscuous = true;
    topology = Scenario.Random { width = 700.0; height = 700.0 };
  }

let traced_run () =
  let s = Scenario.create params in
  let trace = Engine.trace (Scenario.engine s) in
  Trace.enable trace;
  Obs.set_capture (Scenario.obs s) true;
  Scenario.bootstrap s;
  let t0 = Engine.now (Scenario.engine s) in
  Scenario.inject s (Faults.outage ~from:(t0 +. 2.0) ~until:(t0 +. 8.0) 4);
  Scenario.start_cbr s
    ~flows:[ (1, 7); (3, 10); (9, 2) ]
    ~interval:0.5 ~duration:20.0 ();
  Scenario.run s ~until:(t0 +. 30.0);
  s

let counters_text s =
  String.concat ""
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%d\n" k v)
       (Stats.counters (Scenario.stats s)))

let ring_sha256 = "156d58020644b161b799aa30fd3b2538e6876436bb5dcd4e9a38f9588271df60"
let jsonl_sha256 = "9a43f9801aea9cb3ad5fa6d5beb167c47120c5da0426da8886aab916e51af734"
let counters_sha256 = "82e590624a332e6b2e33902aee4c277fc76f2ba6e7fb2276da574270d00677fa"

let test_golden () =
  let s = traced_run () in
  let trace = Engine.trace (Scenario.engine s) in
  let obs = Scenario.obs s in
  (* The pin only means something if nothing was dropped and the
     transmit path actually logged. *)
  Alcotest.(check int) "ring dropped nothing" 0 (Trace.dropped trace);
  Alcotest.(check int) "capture dropped nothing" 0 (Obs.events_dropped obs);
  let tx_lines =
    List.length
      (List.filter
         (fun e -> String.starts_with ~prefix:"tx." e.Trace.event)
         (Trace.entries trace))
  in
  Alcotest.(check bool) "tx.* lines present" true (tx_lines > 100);
  Alcotest.(check string) "ring render digest" ring_sha256
    (Sha256.digest_hex (Trace.render trace));
  Alcotest.(check string) "trace JSONL digest" jsonl_sha256
    (Sha256.digest_hex (Obs.to_jsonl obs));
  Alcotest.(check string) "stats counters digest" counters_sha256
    (Sha256.digest_hex (counters_text s))

let suites =
  [
    ( "trace_golden",
      [ Alcotest.test_case "traced run digests" `Quick test_golden ] );
  ]
