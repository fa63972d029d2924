(* The three benchmark workloads and one measured pass over a workload.

   A workload is a set of scenario parameters derived from the seed, the
   routing planes it runs on (one scenario per plane, same seed), the
   DAD stagger and an optional CBR traffic phase.  A pass creates one
   scenario per plane, bootstraps it, runs the traffic, renders the
   deterministic exports and checks the outputs.  Everything is driven
   through the library's public API; the benchmark never reaches into
   the program. *)

module Scenario = Manetsec.Scenario
module Engine = Manetsec.Sim.Engine
module Net = Manetsec.Sim.Net
module Hist = Manetsec.Sim.Hist
module Stats = Manetsec.Sim.Stats
module Mobility = Manetsec.Sim.Mobility
module Mono_clock = Manetsec.Sim.Mono_clock
module Prng = Manetsec.Crypto.Prng
module Sha256 = Manetsec.Crypto.Sha256
module Obs = Manetsec.Obs
module Timeline = Manetsec.Timeline
module Dad = Manetsec.Dad
module Topology = Manetsec.Sim.Topology
module Suite = Manetsec.Crypto.Suite
module Flood = Manetsec.Flood
module Audit = Manetsec.Audit

(* CBR flow endpoints: [Pairs k] draws k random (src, dst) pairs; [Ring]
   has every non-DNS node send to the next one in a seed-shuffled
   cycle, so each node is exactly one flow's source and one flow's
   destination and the offered load does not hinge on a few lucky or
   unlucky pairs. *)
type flows = Pairs of int | Ring

type traffic = { flows : flows; interval : float; duration : float }

type t = {
  name : string;
  base : Scenario.params;  (** seed, protocol and adversaries are filled per pass *)
  planes : Scenario.protocol list;
  stagger : float;
  blackholes : int;
  traffic : traffic option;
}

(* Simulated seconds after the last CBR packet for in-flight traffic to
   land, so every offered packet has had its chance to arrive. *)
let drain = 20.0

let rwp = Mobility.Random_waypoint { min_speed = 1.0; max_speed = 10.0; pause = 2.0 }

let bootstrap_grid ~cols =
  {
    name = "bootstrap_grid400";
    base =
      {
        Scenario.default_params with
        n = cols * cols;
        range = 260.0;
        topology = Scenario.Grid { cols; spacing = 180.0 };
        suite = Scenario.Mock_suite;
      };
    planes = [ Scenario.Secure ];
    stagger = 0.2;
    blackholes = 0;
    traffic = None;
  }

let routing_mobile ~n ~flows ~duration =
  {
    name = "routing_mobile30";
    base =
      {
        Scenario.default_params with
        n;
        range = 250.0;
        promiscuous = true;
        topology = Scenario.Random { width = 900.0; height = 900.0 };
        mobility = rwp;
        suite = Scenario.Mock_suite;
      };
    planes = [ Scenario.Secure; Scenario.Plain_dsr; Scenario.Srp_protocol ];
    stagger = 0.5;
    blackholes = 2;
    traffic = Some { flows = Pairs flows; interval = 0.25; duration };
  }

let secure_rsa ~n ~field ~duration =
  {
    name = "secure_rsa30";
    base =
      {
        Scenario.default_params with
        n;
        range = 250.0;
        topology = Scenario.Random { width = field; height = field };
        mobility = rwp;
        suite = Scenario.Rsa_suite 512;
      };
    planes = [ Scenario.Secure ];
    stagger = 0.5;
    blackholes = 0;
    (* 29 flows at one packet per 2.9 s: 10 packets/s in all. *)
    traffic = Some { flows = Ring; interval = 2.9; duration };
  }

(* [toy] shrinks every workload to a second or less of work, for the
   self-test; the names stay the same so the output schema does too. *)
let all ~toy =
  if toy then
    [
      bootstrap_grid ~cols:5;
      routing_mobile ~n:10 ~flows:2 ~duration:10.0;
      secure_rsa ~n:8 ~field:400.0 ~duration:10.0;
    ]
  else
    [
      bootstrap_grid ~cols:20;
      routing_mobile ~n:30 ~flows:6 ~duration:1800.0;
      secure_rsa ~n:30 ~field:700.0 ~duration:1000.0;
    ]

let find ~toy name = List.find_opt (fun w -> w.name = name) (all ~toy)

let plane_name = function
  | Scenario.Secure -> "secure"
  | Scenario.Plain_dsr -> "dsr"
  | Scenario.Srp_protocol -> "srp"

(* --- inputs from the seed ----------------------------------------------- *)

(* Black holes and flow endpoints are drawn from their own stream of the
   seed.  Node 0 hosts the DNS; flows never start or end at a black
   hole, so every loss is the protocol's, not a flow aimed at an
   attacker. *)
let inputs w ~seed =
  let g = Prng.create ~seed:(seed + 0x5eed) in
  let n = w.base.Scenario.n in
  let ids = Array.init (n - 1) (fun i -> i + 1) in
  Prng.shuffle g ids;
  let holes = Array.to_list (Array.sub ids 0 w.blackholes) in
  let honest = Array.sub ids w.blackholes (Array.length ids - w.blackholes) in
  let flows =
    match w.traffic with
    | None -> []
    | Some { flows = Ring; _ } ->
        let m = Array.length honest in
        List.init m (fun k -> (honest.(k), honest.((k + 1) mod m)))
    | Some { flows = Pairs count; _ } ->
        let m = Array.length honest in
        List.init count (fun k ->
            let src = honest.(k mod m) in
            let dst = honest.((k + 1 + Prng.int g (m - 1)) mod m) in
            (src, dst))
  in
  (holes, flows)

(* --- one pass ------------------------------------------------------------ *)

type mode = { traced : bool; timeline : bool }

let untraced = { traced = false; timeline = true }

(* What one plane leaves for the metrics, read as soon as the plane
   finishes: a pass never holds more than one scenario alive, so the
   peak heap is the program's, not the benchmark's. *)
type plane = {
  protocol : Scenario.protocol;
  create_s : float;
  boot_s : float;
  run_s : float;
  export_s : float;
  words_setup : float;
  words_boot : float;
  words_run : float;
  promoted : float;
  majors : int;
  unconfigured : int;  (** non-DNS nodes without an address after bootstrap *)
  dads : int;
  offered : int;
  delivered : int;
  events : int;
  max_pending : int;
  wall_in_run : float;  (** profiled engine wall; 0 unless traced *)
  label_wall : (string * float) list;  (** profiled wall per event label *)
  transmissions : int;
  deliveries : int;
  retries : int;
  scan : Hist.t;  (** nodes examined per neighbour scan *)
  tx : int;  (** protocol sends, the [tx.*] stats counters *)
  tx_bytes : int;
  signs : int;
  verifies : int;
  sha256_blocks : int;
  floods : Flood.summary list;
  audit_events : int;
  topology : Topology.t;  (** final node positions *)
  core_export : string;  (** stats counters and perf det export *)
  timeline_export : string;
  errors : string list;  (** failed output checks *)
}

type pass = {
  mode : mode;
  planes : plane list;
  setup_s : float;
  wall_s : float;
  events : int;
  ops : int;
  lost : int;  (** operations the protocols themselves failed *)
  digest : string;  (** over every plane's core and timeline exports *)
  core_digest : string;  (** over the core exports only *)
  errors : string list;  (** failed output checks *)
}

let counters_text st =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
    (Stats.counters st);
  Buffer.contents b

(* The physical bound on deliveries per transmission.  Promiscuous
   overhears are not sampled by the broadcast fan-out histogram, so
   with promiscuous radios the bound is every other node. *)
let max_fanout w net =
  if w.base.Scenario.promiscuous then w.base.Scenario.n - 1
  else Option.value ~default:0 (Hist.max_value (Net.fanout_hist net))

let check_plane w ~protocol ~unconfigured ~offered ~delivered net =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let pn = plane_name protocol in
  if unconfigured > 0 then
    fail "%s: %d node(s) unconfigured after bootstrap" pn unconfigured;
  if delivered > offered then
    fail "%s: data.delivered %d > data.offered %d" pn delivered offered;
  if Net.deliveries net > Net.transmissions net * max_fanout w net then
    fail "%s: net deliveries %d > transmissions %d x max fan-out %d" pn
      (Net.deliveries net) (Net.transmissions net) (max_fanout w net);
  List.rev !errs

let prefixed_sum prefix st =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 (Stats.counters st)

let params w ~seed ~holes protocol =
  {
    w.base with
    Scenario.seed;
    protocol;
    adversaries = List.map (fun i -> (i, Manetsec.Adversary.blackhole)) holes;
  }

let run_plane ?spans w ~seed ~mode ~holes ~flows protocol =
  let span name f =
    match spans with Some sp -> Spans.within sp name f | None -> f ()
  in
  span (plane_name protocol) @@ fun () ->
  let params = params w ~seed ~holes protocol in
  let q0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Mono_clock.now_s () in
  let s = span "create" (fun () -> Scenario.create params) in
  let t1 = Mono_clock.now_s () in
  let m1 = Gc.minor_words () in
  let eng = Scenario.engine s in
  if not mode.timeline then Timeline.set_enabled (Obs.timeline (Scenario.obs s)) false;
  if mode.traced then Engine.set_profiling eng true;
  let t1' = Mono_clock.now_s () in
  let m1' = Gc.minor_words () in
  span "bootstrap" (fun () -> Scenario.bootstrap ~stagger:w.stagger s);
  let t2 = Mono_clock.now_s () in
  let m2 = Gc.minor_words () in
  let unconfigured = ref 0 in
  Array.iter
    (fun (nd : Scenario.node) ->
      if not (nd.index = 0 && params.with_dns) then
        if not (Dad.is_configured nd.dad) then incr unconfigured)
    (Scenario.nodes s);
  (match w.traffic with
  | None -> ()
  | Some tr ->
      span "run" (fun () ->
          Scenario.start_cbr s ~flows ~interval:tr.interval ~duration:tr.duration ();
          Scenario.run s ~until:(Engine.now eng +. tr.duration +. drain)));
  let t3 = Mono_clock.now_s () in
  let m3 = Gc.minor_words () in
  let q3 = Gc.quick_stat () in
  let core_export, timeline_export =
    span "export" (fun () ->
        ( counters_text (Scenario.stats s) ^ Scenario.perf_det_jsonl s,
          Scenario.timeline_jsonl s ))
  in
  let t4 = Mono_clock.now_s () in
  let st = Scenario.stats s in
  let net = Scenario.net s in
  let suite = Scenario.suite s in
  let offered = Stats.get st "data.offered" in
  let delivered = Stats.get st "data.delivered" in
  let unconfigured = !unconfigured in
  {
    protocol;
    create_s = t1 -. t0;
    boot_s = t2 -. t1';
    run_s = t3 -. t2;
    export_s = t4 -. t3;
    words_setup = m1 -. m0;
    words_boot = m2 -. m1';
    words_run = m3 -. m2;
    promoted = q3.Gc.promoted_words -. q0.Gc.promoted_words;
    majors = q3.Gc.major_collections - q0.Gc.major_collections;
    unconfigured;
    dads = (if params.with_dns then params.n - 1 else params.n);
    offered;
    delivered;
    events = Engine.events_processed eng;
    max_pending = Engine.max_pending eng;
    wall_in_run = Engine.wall_in_run eng;
    label_wall = List.map (fun (l, e) -> (l, e.Engine.p_wall_s)) (Engine.profile eng);
    transmissions = Net.transmissions net;
    deliveries = Net.deliveries net;
    retries = Net.retries net;
    scan = Net.scan_hist net;
    tx = prefixed_sum "tx." st;
    tx_bytes = prefixed_sum "txbytes." st;
    signs = suite.Suite.sign_count;
    verifies = suite.Suite.verify_count;
    sha256_blocks = suite.Suite.sha256_blocks;
    floods = Flood.summaries (Obs.flood (Scenario.obs s));
    audit_events = Audit.count (Obs.audit (Scenario.obs s));
    topology = Net.topology net;
    core_export;
    timeline_export;
    errors = check_plane w ~protocol ~unconfigured ~offered ~delivered net;
  }

let digest_of parts = Sha256.digest_hex (String.concat "\x00" parts)

let run_pass ?spans w ~seed ~mode =
  let holes, flows = inputs w ~seed in
  let body () =
    List.map (run_plane ?spans w ~seed ~mode ~holes ~flows) w.planes
  in
  let planes =
    match spans with
    | Some sp -> Spans.within sp "pass" body
    | None -> body ()
  in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 planes in
  let isum f = List.fold_left (fun acc p -> acc + f p) 0 planes in
  {
    mode;
    planes;
    setup_s = sum (fun p -> p.create_s);
    wall_s = sum (fun p -> p.boot_s +. p.run_s);
    events = isum (fun p -> p.events);
    ops = isum (fun p -> p.dads + p.offered);
    lost = isum (fun p -> p.unconfigured + (p.offered - p.delivered));
    digest = digest_of (List.concat_map (fun p -> [ p.core_export; p.timeline_export ]) planes);
    core_digest = digest_of (List.map (fun p -> p.core_export) planes);
    errors = List.concat_map (fun (p : plane) -> p.errors) planes;
  }
