(* One benchmark run: repeated passes over a workload, the output checks
   across them, and the metrics the run reports.

   Untraced run ([--trace 0]): identical passes while at least half of
   the next one fits in the time budget (at least two, so a seed's digest
   is always compared with a repetition), then set-up samples.  Every
   timing is a median.

   Traced run ([--trace 1]): passes rotate through three modes — plain,
   profiled with spans, and timeline off — so the trace overhead and the
   timeline overhead are each a same-run pair, then the layers' unit
   costs are timed. *)

module Scenario = Manetsec.Scenario
module Hist = Manetsec.Sim.Hist
module Mono_clock = Manetsec.Sim.Mono_clock
module Suite = Manetsec.Crypto.Suite
module Flood = Manetsec.Flood

(* Set-up is sampled at least [min_setup_samples] times and for at
   least [min_setup_wall_s] of wall clock: a mock-suite create takes a
   few milliseconds or less, and the host's speed drifts on that scale,
   so the median needs a second's worth of samples to settle. *)
let min_setup_samples = 5
let min_setup_wall_s = 1.0

(* The layer each engine event label belongs to. *)
let layer_of_label = function
  | "net" -> "net"
  | "mobility" -> "mobility"
  | "dad" -> "dad"
  | "dns" -> "dns"
  | "secure" | "dsr" | "srp" -> "routing"
  | "traffic" -> "traffic"
  | "adversary" -> "adversary"
  | _ -> "other"

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* What a pass leaves behind once its scenarios are dropped: the
   numbers the metrics need, so passes can repeat without holding every
   scenario's heap alive. *)
type summary = {
  mode : Workload.mode;
  wall_s : float;
  events : int;
  ops : int;
  lost : int;
  digest : string;
  core_digest : string;
  errors : string list;
  words : float;  (** minor words during bootstrap and traffic *)
  layer : (string * float) list;  (** this pass's per-layer numbers *)
}

let sum_planes planes f = List.fold_left (fun acc p -> acc +. f p) 0.0 planes

let fsum_int planes f = sum_planes planes (fun p -> float_of_int (f p))

let label_wall (p : Workload.plane) layer =
  List.fold_left
    (fun acc (label, wall) -> if layer_of_label label = layer then acc +. wall else acc)
    0.0 p.label_wall

let floods_of (p : Workload.plane) kind =
  List.filter (fun f -> f.Flood.kind = kind) p.floods

(* The per-layer numbers of one pass.  Counts are exact and repeat
   across passes; the label and span timings are only meaningful for a
   profiled pass and are taken from those alone. *)
let layer_numbers (pass : Workload.pass) =
  let planes = pass.planes in
  let scan =
    List.fold_left (fun acc (p : Workload.plane) -> Hist.merge acc p.scan) (Hist.create ()) planes
  in
  let tx = fsum_int planes (fun p -> p.transmissions) in
  let deliveries = fsum_int planes (fun p -> p.deliveries) in
  let areq = List.concat_map (fun p -> floods_of p Flood.Areq) planes in
  let rreq = List.concat_map (fun p -> floods_of p Flood.Rreq) planes in
  let fsum xs f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let labels =
    sum_planes planes (fun p -> List.fold_left (fun acc (_, w) -> acc +. w) 0.0 p.label_wall)
  in
  let plane_s proto =
    sum_planes planes (fun p -> if p.protocol = proto then p.boot_s +. p.run_s else 0.0)
  in
  let dads = fsum_int planes (fun p -> p.dads) in
  [
    ("engine.events", float_of_int pass.events);
    ( "engine.max_pending",
      float_of_int (List.fold_left (fun acc (p : Workload.plane) -> max acc p.max_pending) 0 planes) );
    ("engine.loop_s", sum_planes planes (fun p -> p.wall_in_run) -. labels);
    ("net.transmissions", tx);
    ("net.deliveries", deliveries);
    ("net.retries", fsum_int planes (fun p -> p.retries));
    ("net.scan_per_tx", ratio (float_of_int (Hist.sum scan)) tx);
    ("net.scan_p99", float_of_int (Option.value ~default:0 (Hist.percentile scan 0.99)));
    ("net.fanout_per_tx", ratio deliveries tx);
    ("net.useful_scan_ratio", ratio deliveries (float_of_int (Hist.sum scan)));
    ("net.label_s", sum_planes planes (fun p -> label_wall p "net"));
    ("mobility.label_s", sum_planes planes (fun p -> label_wall p "mobility"));
    ("proto.tx", fsum_int planes (fun p -> p.tx));
    ("proto.tx_bytes", fsum_int planes (fun p -> p.tx_bytes));
    ("crypto.signs", fsum_int planes (fun p -> p.signs));
    ("crypto.verifies", fsum_int planes (fun p -> p.verifies));
    ("crypto.sha256_blocks", fsum_int planes (fun p -> p.sha256_blocks));
    ( "crypto.verifies_per_delivered",
      ratio
        (fsum_int planes (fun p -> p.verifies))
        (Float.max 1.0 (fsum_int planes (fun p -> p.delivered))) );
    ("dad.areq_floods", float_of_int (List.length areq));
    ( "dad.flood_redundancy_ratio",
      ratio (fsum areq (fun f -> f.Flood.received)) (fsum areq (fun f -> f.Flood.reached)) );
    ("dad.configured_frac", ratio (dads -. fsum_int planes (fun p -> p.unconfigured)) dads);
    ("dad.label_s", sum_planes planes (fun p -> label_wall p "dad"));
    ("dns.label_s", sum_planes planes (fun p -> label_wall p "dns"));
    ("routing.rreq_floods", float_of_int (List.length rreq));
    ( "routing.duplicate_verifies_per_flood",
      ratio
        (fsum rreq (fun f -> max 0 (f.Flood.verifies - f.Flood.verify_nodes)))
        (float_of_int (List.length rreq)) );
    ("routing.secure_s", plane_s Scenario.Secure);
    ("routing.dsr_s", plane_s Scenario.Plain_dsr);
    ("routing.srp_s", plane_s Scenario.Srp_protocol);
    ("routing.label_s", sum_planes planes (fun p -> label_wall p "routing"));
    ("traffic.label_s", sum_planes planes (fun p -> label_wall p "traffic"));
    ("adversary.label_s", sum_planes planes (fun p -> label_wall p "adversary"));
    ("obs.export_s", sum_planes planes (fun p -> p.export_s));
    ("obs.audit_events", fsum_int planes (fun p -> p.audit_events));
    ("gc.minor_words.setup", sum_planes planes (fun p -> p.words_setup));
    ("gc.minor_words.bootstrap", sum_planes planes (fun p -> p.words_boot));
    ("gc.minor_words.run", sum_planes planes (fun p -> p.words_run));
    ("gc.major_collections", fsum_int planes (fun p -> p.majors));
    ("gc.promoted_words", sum_planes planes (fun p -> p.promoted));
    ("scenario.create_s", pass.setup_s);
    ("trace.coverage", ratio labels pass.wall_s);
  ]

let summarize (pass : Workload.pass) =
  {
    mode = pass.mode;
    wall_s = pass.wall_s;
    events = pass.events;
    ops = pass.ops;
    lost = pass.lost;
    digest = pass.digest;
    core_digest = pass.core_digest;
    errors = pass.errors;
    words = sum_planes pass.planes (fun p -> p.words_boot +. p.words_run);
    layer = layer_numbers pass;
  }

(* --- the run ------------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  spans : Spans.t option;
}

(* Digest checks across the run: every full-export pass repeats the
   same digest (a traced pass too: tracing must not perturb the run), a
   timeline-off pass repeats the core digest, and a seed with a recorded
   digest matches it. *)
let digest_errors ~expected (passes : summary list) =
  match List.filter (fun p -> p.mode.Workload.timeline) passes with
  | [] -> []
  | first :: _ ->
      let drift p =
        if p.mode.timeline then
          if p.digest = first.digest then None
          else
            Some
              (Printf.sprintf "digest %s of a %s pass differs from the first pass's %s"
                 p.digest
                 (if p.mode.traced then "traced" else "repeated")
                 first.digest)
        else if p.core_digest = first.core_digest then None
        else
          Some
            (Printf.sprintf "timeline-off core digest %s differs from %s" p.core_digest
               first.core_digest)
      in
      let recorded =
        match expected with
        | Some d when d <> first.digest ->
            [ Printf.sprintf "digest %s differs from the recorded %s" first.digest d ]
        | _ -> []
      in
      recorded @ List.filter_map drift passes

(* Set-up samples, taken after the passes: the forced collection before
   each sample would otherwise change how the passes' heap grows.  One
   sample creates every plane's scenario once and drops it. *)
let sample_setup (w : Workload.t) ~seed =
  let holes, _ = Workload.inputs w ~seed in
  let sample () =
    List.fold_left
      (fun acc protocol ->
        let params = Workload.params w ~seed ~holes protocol in
        Gc.full_major ();
        let t0 = Mono_clock.now_s () in
        ignore (Sys.opaque_identity (Scenario.create params));
        acc +. (Mono_clock.now_s () -. t0))
      0.0 w.planes
  in
  let t0 = Mono_clock.now_s () in
  let rec more acc k =
    if k >= min_setup_samples && Mono_clock.now_s () -. t0 >= min_setup_wall_s then acc
    else more (sample () :: acc) (k + 1)
  in
  more [] 0

let top_heap_mb () =
  float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let rotation =
  [|
    Workload.untraced;
    { Workload.traced = true; timeline = true };
    { Workload.traced = false; timeline = false };
  |]

let run (w : Workload.t) ~seed ~seconds ~trace ~expected =
  let t_start = Mono_clock.now_s () in
  let spans = if trace then Some (Spans.create ()) else None in
  let passes = ref [] in
  let peak_mb = ref 0.0 in
  let last_topology = ref None in
  let min_passes = if trace then Array.length rotation else 2 in
  let i = ref 0 in
  let last_pass_s = ref 0.0 in
  (* Start another pass while at least half of it fits in the budget. *)
  while
    !i < min_passes || Mono_clock.now_s () -. t_start +. (!last_pass_s /. 2.0) < seconds
  do
    let t_pass = Mono_clock.now_s () in
    let mode = if trace then rotation.(!i mod Array.length rotation) else Workload.untraced in
    Gc.full_major ();
    let pass =
      Workload.run_pass ?spans:(if mode.traced then spans else None) w ~seed ~mode
    in
    (* The peak heap of one pass: read after the first, before any
       later pass's garbage can raise it. *)
    if !i = 0 then peak_mb := top_heap_mb ();
    (match List.rev pass.planes with
    | p :: _ -> last_topology := Some p.topology
    | [] -> ());
    passes := summarize pass :: !passes;
    last_pass_s := Mono_clock.now_s () -. t_pass;
    incr i
  done;
  let passes = List.rev !passes in
  let setup_samples = if trace then [] else sample_setup w ~seed in
  let run_errors = digest_errors ~expected passes in
  let pass_errors = List.concat_map (fun (p : summary) -> p.errors) passes in
  let errors = run_errors @ pass_errors in
  let attempted = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  (* A failed check fails every operation of the passes it concerns:
     digest checks concern the whole run. *)
  let failed =
    if run_errors <> [] then attempted
    else
      List.fold_left
        (fun acc (p : summary) -> if p.errors <> [] then acc + p.ops else acc)
        0 passes
  in
  let protocol_lost =
    List.fold_left
      (fun acc (p : summary) -> if p.errors = [] then acc + p.lost else acc)
      0 passes
  in
  let failed_frac =
    if run_errors <> [] then 1.0
    else float_of_int (failed + protocol_lost) /. float_of_int (max 1 attempted)
  in
  let of_mode pred = List.filter (fun p -> pred p.mode) passes in
  let plain = of_mode (fun m -> (not m.traced) && m.timeline) in
  let med f ps = median (List.map f ps) in
  let metrics =
    if not trace then
      [
        ("wall_s", med (fun p -> p.wall_s) plain, "s");
        ("events_per_s", med (fun p -> float_of_int p.events /. p.wall_s) plain, "1/s");
        ("setup_s", median setup_samples, "s");
        ("peak_heap_mb", !peak_mb, "MB");
        ( "minor_words_per_event",
          med (fun p -> p.words /. float_of_int (max 1 p.events)) plain,
          "words/event" );
        ("ok_frac", 1.0 -. failed_frac, "ratio");
      ]
    else
      let traced = of_mode (fun m -> m.traced) in
      let off = of_mode (fun m -> not m.timeline) in
      let layer_of ps name = med (fun p -> List.assoc name p.layer) ps in
      (* Counts and allocation come from the plain passes, timings from
         the profiled ones. *)
      let count_of = layer_of plain and layer = layer_of traced in
      let suite =
        let g = Manetsec.Crypto.Prng.create ~seed in
        match w.base.suite with
        | Scenario.Mock_suite -> Suite.mock g
        | Scenario.Rsa_suite bits -> Suite.rsa ~bits g
      in
      let target_s = Float.min 0.2 (Float.max 0.01 (seconds /. 150.0)) in
      let c = Unit_cost.crypto ~target_s ~suite in
      let broadcast_ns =
        match !last_topology with
        | Some topo -> Unit_cost.broadcast_ns ~target_s ~range:w.base.range topo
        | None -> 0.0
      in
      let wall ps = med (fun p -> p.wall_s) ps in
      let frac a b = if b = 0.0 then 0.0 else (a /. b) -. 1.0 in
      let count name unit = (name, count_of name, unit) in
      let timed name = (name, layer name, "s") in
      [
        count "engine.events" "count";
        count "engine.max_pending" "count";
        timed "engine.loop_s";
        ("engine.heap_cycle_ns", Unit_cost.heap_cycle_ns ~target_s, "ns");
        count "net.transmissions" "count";
        count "net.deliveries" "count";
        count "net.retries" "count";
        count "net.scan_per_tx" "nodes/tx";
        count "net.scan_p99" "nodes";
        count "net.fanout_per_tx" "nodes/tx";
        count "net.useful_scan_ratio" "ratio";
        ("net.broadcast_ns", broadcast_ns, "ns");
        timed "net.label_s";
        timed "mobility.label_s";
        count "proto.tx" "count";
        count "proto.tx_bytes" "bytes";
        ("proto.size_of_ns", Unit_cost.size_of_ns ~target_s, "ns");
        ("proto.encode_ns", Unit_cost.encode_ns ~target_s, "ns");
        count "crypto.signs" "count";
        count "crypto.verifies" "count";
        count "crypto.sha256_blocks" "count";
        count "crypto.verifies_per_delivered" "ratio";
        ("crypto.rsa512_sign_ns", c.rsa_sign_ns, "ns");
        ("crypto.rsa512_verify_ns", c.rsa_verify_ns, "ns");
        ("crypto.rsa512_keygen_ms", c.rsa_keygen_ms, "ms");
        ("crypto.sha256_1k_ns", c.sha256_1k_ns, "ns");
        ( "crypto.est_s",
          1e-9
          *. ((count_of "crypto.signs" *. c.suite_sign_ns)
             +. (count_of "crypto.verifies" *. c.suite_verify_ns)),
          "s" );
        count "dad.areq_floods" "count";
        count "dad.flood_redundancy_ratio" "ratio";
        count "dad.configured_frac" "ratio";
        timed "dad.label_s";
        timed "dns.label_s";
        count "routing.rreq_floods" "count";
        count "routing.duplicate_verifies_per_flood" "ratio";
        timed "routing.secure_s";
        timed "routing.dsr_s";
        timed "routing.srp_s";
        timed "routing.label_s";
        timed "traffic.label_s";
        timed "adversary.label_s";
        ("obs.timeline_overhead_frac", frac (wall plain) (wall off), "ratio");
        ("obs.export_s", count_of "obs.export_s", "s");
        count "obs.audit_events" "count";
        count "gc.minor_words.setup" "words";
        count "gc.minor_words.bootstrap" "words";
        count "gc.minor_words.run" "words";
        count "gc.major_collections" "count";
        count "gc.promoted_words" "words";
        timed "scenario.create_s";
        ("trace.coverage", layer "trace.coverage", "ratio");
        ("trace_overhead_frac", frac (wall traced) (wall plain), "ratio");
        ("failed_frac", failed_frac, "ratio");
      ]
  in
  (* A metric that is not a finite number is a failed check too. *)
  let non_finite =
    List.filter_map
      (fun (name, v, _) ->
        if Float.is_finite v then None else Some (name ^ " is not a finite number"))
      metrics
  in
  let errors = errors @ non_finite in
  {
    correct = errors = [];
    attempted;
    failed = (if non_finite = [] then failed else attempted);
    errors;
    metrics =
      List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics;
    spans;
  }
