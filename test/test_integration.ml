(* Whole-stack integration properties: random benign networks must just
   work, the stack must hold up under radio loss, mobility, real RSA,
   and identical seeds must replay identically. *)

module Prng = Manet_crypto.Prng
module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Mobility = Manet_sim.Mobility
module Topology = Manet_sim.Topology
module Scenario = Manetsec.Scenario

let qtest ?(count = 200) ?rand name gen prop =
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)

let stat s name = Stats.get (Scenario.stats s) name

(* Any connected random network with honest nodes must deliver
   everything and reject nothing.  A draw whose field admits no
   connected placement (a few n >= 20 seeds: [Scenario.create] raises
   [Topology.No_connected_placement], its documented outcome) is outside
   the precondition and is discarded, not failed. *)
let benign_network_delivers (seed0, n0) =
  let seed = 1 + (seed0 mod 1000) in
  let n = 6 + (n0 mod 18) in
  let params =
    {
      Scenario.default_params with
      n;
      seed;
      topology =
        Scenario.Random
          {
            width = 250.0 *. sqrt (float_of_int n);
            height = 250.0 *. sqrt (float_of_int n);
          };
    }
  in
  let s =
    try Scenario.create params
    with Topology.No_connected_placement _ -> QCheck.assume_fail ()
  in
  let g = Prng.create ~seed:(seed + 1) in
  let flows =
    List.init 4 (fun _ ->
        let a = 1 + Prng.int g (n - 1) in
        let rec other () =
          let b = 1 + Prng.int g (n - 1) in
          if b = a then other () else b
        in
        (a, other ()))
  in
  Scenario.start_cbr s ~flows ~interval:0.5 ~duration:10.0 ();
  Scenario.run s ~until:40.0;
  Scenario.delivery_ratio s >= 0.99
  && stat s "secure.rreq_rejected" = 0
  && stat s "secure.rrep_rejected" = 0
  && stat s "secure.hostile_suspected" = 0

let prop_random_benign_networks_deliver =
  qtest ~count:12 "integration: random benign secure networks deliver fully"
    QCheck.(pair small_nat small_nat)
    benign_network_delivers

(* Fixed regression draw: QCHECK_SEED=19 generates (7, 52), i.e. seed 8
   and n = 22, a field with no connected placement. *)
let prop_benign_networks_seed_19 =
  qtest ~count:12 ~rand:(Random.State.make [| 19 |])
    "integration: benign networks, QCHECK_SEED=19 draws"
    QCheck.(pair small_nat small_nat)
    benign_network_delivers

let test_lossy_radio_still_delivers () =
  (* 15% per-reception loss: MAC retries and end-to-end retries must keep
     the delivery ratio high on a 4-hop chain. *)
  let params =
    {
      Scenario.default_params with
      n = 5;
      seed = 3;
      range = 150.0;
      loss = 0.15;
      topology = Scenario.Chain { spacing = 100.0 };
    }
  in
  let s = Scenario.create params in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:20.0 ();
  Scenario.run s ~until:80.0;
  Alcotest.(check bool)
    (Printf.sprintf "delivery under loss (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s > 0.9)

let test_rsa_suite_end_to_end () =
  (* The full stack with real RSA signatures: bootstrap, discovery with
     per-hop signing, delivery. *)
  let params =
    {
      Scenario.default_params with
      n = 5;
      seed = 9;
      range = 150.0;
      topology = Scenario.Chain { spacing = 100.0 };
      suite = Scenario.Rsa_suite 256;
    }
  in
  let s = Scenario.create params in
  Scenario.bootstrap s;
  Alcotest.(check int) "all configured" 4 (stat s "dad.configured");
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:5.0 ();
  Scenario.run s ~until:(Engine.now (Scenario.engine s) +. 30.0);
  Alcotest.(check (float 0.01)) "full delivery" 1.0 (Scenario.delivery_ratio s);
  let signs, verifies = Scenario.crypto_ops s in
  Alcotest.(check bool) "real signatures made" true (signs > 0 && verifies > 0);
  Alcotest.(check int) "nothing rejected" 0 (stat s "secure.rrep_rejected")

let test_mobility_with_secure_routing () =
  let params =
    {
      Scenario.default_params with
      n = 20;
      seed = 21;
      range = 300.0;
      topology = Scenario.Random { width = 700.0; height = 700.0 };
      mobility =
        Mobility.Random_waypoint { min_speed = 1.0; max_speed = 8.0; pause = 1.0 };
    }
  in
  let s = Scenario.create params in
  Scenario.start_cbr s ~flows:[ (1, 12); (7, 18) ] ~interval:0.5 ~duration:60.0 ();
  Scenario.run s ~until:120.0;
  Alcotest.(check bool)
    (Printf.sprintf "mobile delivery (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s > 0.9)
  (* Note: under mobility an honest node that moved away can look like a
     silent dropper and draw suspicion — the paper's aggressive blame
     model accepts this; credits recover through later deliveries.  So no
     zero-suspicion assertion here, only that traffic keeps flowing. *)

let test_no_dns_scenario () =
  let params =
    {
      Scenario.default_params with
      n = 4;
      seed = 5;
      range = 150.0;
      topology = Scenario.Chain { spacing = 100.0 };
      with_dns = false;
    }
  in
  let s = Scenario.create params in
  Alcotest.(check bool) "no dns server" true (Scenario.dns_server s = None);
  Scenario.start_cbr s ~flows:[ (0, 3) ] ~interval:0.5 ~duration:5.0 ();
  Scenario.run s ~until:30.0;
  Alcotest.(check (float 0.01)) "delivery" 1.0 (Scenario.delivery_ratio s)

let test_determinism_across_runs () =
  (* Identical parameters must replay identically, counter for counter —
     the property every experiment in EXPERIMENTS.md relies on. *)
  let run () =
    let params =
      {
        Scenario.default_params with
        n = 12;
        seed = 77;
        topology = Scenario.Random { width = 600.0; height = 600.0 };
        mobility =
          Mobility.Random_waypoint { min_speed = 1.0; max_speed = 5.0; pause = 1.0 };
        adversaries = [ (3, Manetsec.Adversary.grayhole 0.5) ];
      }
    in
    let s = Scenario.create params in
    Scenario.bootstrap s;
    Scenario.start_cbr s ~flows:[ (1, 9); (9, 1) ] ~interval:0.5 ~duration:20.0 ();
    Scenario.run s ~until:(Engine.now (Scenario.engine s) +. 60.0);
    Stats.counters (Scenario.stats s)
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair string int))) "identical counter state" a b

let suites =
  [
    ( "integration",
      [
        prop_random_benign_networks_deliver;
        prop_benign_networks_seed_19;
        Alcotest.test_case "lossy radio" `Quick test_lossy_radio_still_delivers;
        Alcotest.test_case "rsa suite end to end" `Quick test_rsa_suite_end_to_end;
        Alcotest.test_case "mobility" `Quick test_mobility_with_secure_routing;
        Alcotest.test_case "no dns" `Quick test_no_dns_scenario;
        Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
      ] );
  ]
