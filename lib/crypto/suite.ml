type keypair = { pk_bytes : string; sign : string -> string }

type op = Sign | Verify | Hash

type t = {
  scheme_name : string;
  generate : unit -> keypair;
  verify : pk_bytes:string -> msg:string -> signature:string -> bool;
  signature_size : int;
  public_key_size : int;
  mutable sign_count : int;
  mutable verify_count : int;
  mutable sha256_blocks : int;
  mutable on_op : (op:op -> bytes:int -> unit) option;
}

(* One accounting point for every operation the suite performs: bump
   the op counter, charge the hash blocks the input costs, and notify
   the subscriber (the perf registry) so it can attribute the op to the
   message kind and node currently being dispatched. *)
let record t op ~bytes =
  (match op with
  | Sign -> t.sign_count <- t.sign_count + 1
  | Verify -> t.verify_count <- t.verify_count + 1
  | Hash -> ());
  t.sha256_blocks <- t.sha256_blocks + Sha256.blocks_of_len bytes;
  match t.on_op with None -> () | Some f -> f ~op ~bytes

let count_hash t ~bytes = record t Hash ~bytes

(* A per-key, direct-mapped signature memo.  A relay's secure route
   record entry signs only (IP, seq), and every source counts seq from
   1, so a key signs byte-identical messages in every flood that shares
   a seq.  RSA signing is deterministic, so a hit returns exactly the
   bytes [Rsa.sign] would compute.  Slot [i] holds the last message
   whose hash selected it and that message's signature; an empty
   signature marks a slot never filled (a real one is never empty). *)
let memo_slots = 256

type memo = { msgs : string array; sigs : string array }

(* A hit compares the full message bytes, never just the hash; a miss
   signs and overwrites the slot. *)
let memo_sign memo priv msg =
  let i = String.hash msg land (memo_slots - 1) in
  let s = Array.unsafe_get memo.sigs i in
  if String.length s > 0 && String.equal (Array.unsafe_get memo.msgs i) msg
  then s
  else begin
    let s = Rsa.sign priv msg in
    Array.unsafe_set memo.msgs i msg;
    Array.unsafe_set memo.sigs i s;
    s
  end

let rsa ?(bits = 512) prng =
  let rec suite =
    {
      scheme_name = Printf.sprintf "rsa-%d" bits;
      generate =
        (fun () ->
          let pub, priv = Rsa.generate prng ~bits in
          let memo =
            { msgs = Array.make memo_slots ""; sigs = Array.make memo_slots "" }
          in
          {
            pk_bytes = Rsa.public_key_to_bytes pub;
            sign =
              (fun msg ->
                (* Count the request before the lookup: counters and
                   the [on_op] subscriber see hits too. *)
                record suite Sign ~bytes:(String.length msg);
                memo_sign memo priv msg);
          });
      verify =
        (fun ~pk_bytes ~msg ~signature ->
          record suite Verify ~bytes:(String.length msg);
          match Rsa.public_key_of_bytes pk_bytes with
          | None -> false
          | Some pk -> Rsa.verify pk ~msg ~signature);
      (* n is [bits] bits and e = 65537: 3 bytes, plus two 2-byte length
         prefixes. *)
      signature_size = (bits + 7) / 8;
      public_key_size = ((bits + 7) / 8) + 3 + 4;
      sign_count = 0;
      verify_count = 0;
      sha256_blocks = 0;
      on_op = None;
    }
  in
  suite

let mock prng =
  let registry = Mock_sig.create_registry () in
  let rec suite =
    {
      scheme_name = "mock-hmac";
      generate =
        (fun () ->
          let pk_bytes, sk = Mock_sig.generate registry prng in
          {
            pk_bytes;
            sign =
              (fun msg ->
                record suite Sign ~bytes:(String.length msg);
                Mock_sig.sign sk msg);
          });
      verify =
        (fun ~pk_bytes ~msg ~signature ->
          record suite Verify ~bytes:(String.length msg);
          Mock_sig.verify registry ~pk_bytes ~msg ~signature);
      signature_size = Mock_sig.signature_size;
      public_key_size = Mock_sig.public_key_size;
      sign_count = 0;
      verify_count = 0;
      sha256_blocks = 0;
      on_op = None;
    }
  in
  suite

let set_on_op t f = t.on_op <- f

let reset_counters t =
  t.sign_count <- 0;
  t.verify_count <- 0;
  t.sha256_blocks <- 0
