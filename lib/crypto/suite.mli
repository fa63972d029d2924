(** A signature suite: the bundle of cryptographic operations every
    protocol module is written against.

    Public keys travel as opaque byte strings ([pk_bytes]) because the
    protocol hashes them into CGA addresses and attaches them to messages
    verbatim; only [verify] needs to understand their structure.  The
    suite also keeps running counters of sign/verify operations, which the
    overhead experiments (E2) report as "crypto ops per delivered
    packet". *)

type keypair = {
  pk_bytes : string;  (** serialized public key, as carried on the wire *)
  sign : string -> string;
      (** sign a message with the private key.  Every call is one sign
          request to the suite's counters and {!t.on_op} subscriber,
          whether or not the signature is computed afresh.  The RSA
          suite memoizes per key: a direct-mapped table of 256 slots
          returns a message's earlier signature when its full bytes
          match, the same value [Rsa.sign] computes (RSA signing is
          deterministic).  The mock suite signs on every call. *)
}

type op = Sign | Verify | Hash
(** Operation classes the suite accounts: signature creation, signature
    verification, and bare hashing charged by a caller through
    {!count_hash} (e.g. the CGA binding checks, which hash but neither
    sign nor verify). *)

type t = {
  scheme_name : string;
  generate : unit -> keypair;
  verify : pk_bytes:string -> msg:string -> signature:string -> bool;
  signature_size : int;  (** wire bytes per signature *)
  public_key_size : int;  (** wire bytes per public key *)
  mutable sign_count : int;
  mutable verify_count : int;
  mutable sha256_blocks : int;
      (** 64-byte compression blocks hashed across all operations
          (message digests for sign/verify plus {!count_hash} charges) *)
  mutable on_op : (op:op -> bytes:int -> unit) option;
      (** subscriber notified on every operation with the input size;
          set via {!set_on_op} (the perf registry uses it to attribute
          ops to the message kind and node under dispatch) *)
}

val rsa : ?bits:int -> Prng.t -> t
(** RSA suite (default 512-bit moduli).  Key generation draws from the
    given PRNG stream, so a seeded suite is fully reproducible.  Each
    generated key pair owns its signature memo (see {!keypair}). *)

val mock : Prng.t -> t
(** Idealized fast suite backed by {!Mock_sig}; its registry is private to
    the returned suite value. *)

val count_hash : t -> bytes:int -> unit
(** Charge the cost of hashing [bytes] bytes outside sign/verify (a CGA
    interface-identifier recomputation, say): adds
    [Sha256.blocks_of_len bytes] to [sha256_blocks] and notifies the
    {!t.on_op} subscriber with the {!Hash} op.  No op counter moves. *)

val set_on_op : t -> (op:op -> bytes:int -> unit) option -> unit
(** Install (or clear) the per-operation subscriber. *)

val reset_counters : t -> unit
(** Zero the sign/verify/hash-block counters before a measured run. *)
