(* Unit costs of single layers, timed by calling the library's public
   functions in isolation: the event heap, one radio broadcast, the wire
   codec over a fixed corpus, and the crypto primitives. *)

module Engine = Manetsec.Sim.Engine
module Heap = Manetsec.Sim.Heap
module Net = Manetsec.Sim.Net
module Topology = Manetsec.Sim.Topology
module Mono_clock = Manetsec.Sim.Mono_clock
module Prng = Manetsec.Crypto.Prng
module Rsa = Manetsec.Crypto.Rsa
module Sha256 = Manetsec.Crypto.Sha256
module Suite = Manetsec.Crypto.Suite
module Address = Manetsec.Ipv6.Address
module Messages = Manetsec.Proto.Messages
module Wire = Manetsec.Proto.Wire
module Binary = Manetsec.Proto.Binary

(* Mean seconds per call of [f], over whole batches until [target_s] of
   wall clock has passed, after one warm-up batch. *)
let per_call ?(batch = 100) ~target_s f =
  for _ = 1 to batch do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Mono_clock.now_s () in
  let calls = ref 0 in
  while Mono_clock.now_s () -. t0 < target_s do
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    calls := !calls + batch
  done;
  (Mono_clock.now_s () -. t0) /. float_of_int !calls

let ns ?batch ~target_s f = 1e9 *. per_call ?batch ~target_s f

(* One allocation-free push / min_snd / drop_min cycle on a heap
   holding 1024 entries, the engine's steady state. *)
let heap_cycle_ns ~target_s =
  let h = Heap.create () in
  for i = 0 to 1023 do
    Heap.push h (float_of_int i) () i
  done;
  let i = ref 0 in
  ns ~target_s (fun () ->
      incr i;
      Heap.push h (float_of_int (1024 + !i)) () !i;
      let v = Heap.min_snd h in
      Heap.drop_min h;
      v)

(* One broadcast on the given topology, from a seeded sequence of
   senders, with no-op receive handlers; the cost includes running the
   delivery events it schedules. *)
let broadcast_ns ~target_s ~range topo =
  let eng = Engine.create ~seed:1 () in
  let net = Net.create ~config:{ Net.default_config with range } eng topo in
  let n = Topology.size topo in
  for i = 0 to n - 1 do
    Net.set_handler net i (fun ~src:_ () -> ())
  done;
  let g = Prng.create ~seed:7 in
  let batch = 64 in
  ns ~batch:1 ~target_s (fun () ->
      for _ = 1 to batch do
        Net.broadcast net ~src:(Prng.int g n) ~size:120 ()
      done;
      Engine.run eng)
  /. float_of_int batch

(* --- codec corpus --------------------------------------------------------- *)

(* One message of every variant at protocol-typical sizes (RSA-512
   signatures, 4-hop routes), plus RREQs carrying 0, 4 and 8 secure
   route record hops. *)
let corpus () =
  let g = Prng.create ~seed:11 in
  let addr () = Address.make ~hi:(Prng.bits64 g) ~lo:(Prng.bits64 g) in
  let route k = List.init k (fun _ -> addr ()) in
  let sig_ () = Prng.bytes g 64 in
  let pk () = Prng.bytes g 72 in
  let rn () = Prng.bits64 g in
  let rreq hops =
    Messages.Rreq
      {
        sip = addr ();
        dip = addr ();
        seq = 17;
        srr =
          List.init hops (fun _ ->
              { Messages.ip = addr (); sig_ = sig_ (); pk = pk (); rn = rn () });
        sig_ = sig_ ();
        spk = pk ();
        srn = rn ();
      }
  in
  [
    Messages.Areq { sip = addr (); seq = 3; dn = Some "node17"; ch = rn (); rr = route 4 };
    Messages.Arep
      { sip = addr (); rr = route 4; remaining = route 2; sig_ = sig_ (); pk = pk (); rn = rn () };
    Messages.Drep
      { sip = addr (); dn = "node17"; rr = route 4; remaining = route 2; sig_ = sig_ () };
    rreq 0;
    rreq 4;
    rreq 8;
    Messages.Rrep
      {
        sip = addr ();
        dip = addr ();
        rr = route 4;
        remaining = route 2;
        sig_ = sig_ ();
        dpk = pk ();
        drn = rn ();
      };
    Messages.Crep
      {
        requester = addr ();
        cacher = addr ();
        dip = addr ();
        requester_seq = 5;
        cacher_seq = 9;
        rr_to_cacher = route 2;
        rr_to_dest = route 3;
        remaining = route 2;
        sig_cacher = sig_ ();
        cacher_pk = pk ();
        cacher_rn = rn ();
        sig_dest = sig_ ();
        dest_pk = pk ();
        dest_rn = rn ();
      };
    Messages.Rerr
      {
        reporter = addr ();
        broken_next = addr ();
        dst = addr ();
        remaining = route 2;
        sig_ = sig_ ();
        pk = pk ();
        rn = rn ();
      };
    Messages.Data
      {
        src = addr ();
        dst = addr ();
        seq = 40;
        route = route 4;
        remaining = route 2;
        payload_size = 512;
        sent_at = 12.5;
      };
    Messages.Ack
      { src = addr (); dst = addr (); data_seq = 40; route = route 4; remaining = route 2; sent_at = 12.5 };
    Messages.Probe
      { origin = addr (); target = addr (); seq = 2; route = route 3; remaining = route 3 };
    Messages.Probe_reply
      {
        responder = addr ();
        origin = addr ();
        seq = 2;
        remaining = route 3;
        sig_ = sig_ ();
        pk = pk ();
        rn = rn ();
      };
    Messages.Name_query
      { requester = addr (); name = "node17"; ch = rn (); route = route 3; remaining = route 3 };
    Messages.Name_reply
      {
        requester = addr ();
        name = "node17";
        result = Some (addr ());
        ch = rn ();
        remaining = route 3;
        sig_ = sig_ ();
      };
    Messages.Ip_change_request
      { old_ip = addr (); new_ip = addr (); route = route 3; remaining = route 3 };
    Messages.Ip_change_challenge
      { old_ip = addr (); new_ip = addr (); ch = rn (); remaining = route 3 };
    Messages.Ip_change_proof
      {
        old_ip = addr ();
        new_ip = addr ();
        old_rn = rn ();
        new_rn = rn ();
        pk = pk ();
        sig_ = sig_ ();
        route = route 3;
        remaining = route 3;
      };
    Messages.Ip_change_ack
      { old_ip = addr (); new_ip = addr (); accepted = true; remaining = route 3 };
  ]

(* Mean nanoseconds per message of [f] over the whole corpus. *)
let per_message ~target_s f =
  let msgs = corpus () in
  let k = float_of_int (List.length msgs) in
  ns ~batch:10 ~target_s (fun () ->
      List.fold_left (fun acc m -> acc + f m) 0 msgs)
  /. k

let size_of_ns ~target_s = per_message ~target_s Wire.size_of
let encode_ns ~target_s = per_message ~target_s (fun m -> String.length (Binary.encode m))

(* --- crypto --------------------------------------------------------------- *)

type crypto = {
  rsa_sign_ns : float;
  rsa_verify_ns : float;
  rsa_keygen_ms : float;
  sha256_1k_ns : float;
  suite_sign_ns : float;  (** the workload's own suite *)
  suite_verify_ns : float;
}

(* A protocol-shaped message: an address and a sequence number, the
   [IP, seq] every relay signs into the secure route record. *)
let srr_msg = String.make 20 'a'

let crypto ~target_s ~(suite : Suite.t) =
  let g = Prng.create ~seed:4242 in
  let data_1k = Prng.bytes g 1024 in
  let pub, priv = Rsa.generate g ~bits:512 in
  let signature = Rsa.sign priv srr_msg in
  let keygen_s = per_call ~batch:2 ~target_s (fun () -> Rsa.generate g ~bits:512) in
  let kp = suite.Suite.generate () in
  let ssig = kp.Suite.sign srr_msg in
  {
    rsa_sign_ns = ns ~batch:10 ~target_s (fun () -> Rsa.sign priv srr_msg);
    rsa_verify_ns = ns ~batch:10 ~target_s (fun () -> Rsa.verify pub ~msg:srr_msg ~signature);
    rsa_keygen_ms = 1e3 *. keygen_s;
    sha256_1k_ns = ns ~target_s (fun () -> Sha256.digest data_1k);
    suite_sign_ns = ns ~batch:10 ~target_s (fun () -> kp.Suite.sign srr_msg);
    suite_verify_ns =
      ns ~batch:10 ~target_s (fun () ->
          suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:srr_msg ~signature:ssig);
  }
