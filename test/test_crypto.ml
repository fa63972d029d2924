(* Unit and property tests for the from-scratch crypto substrate. *)

module Prng = Manet_crypto.Prng
module Bignum = Manet_crypto.Bignum
module Sha256 = Manet_crypto.Sha256
module Hmac = Manet_crypto.Hmac
module Rsa = Manet_crypto.Rsa
module Mock_sig = Manet_crypto.Mock_sig
module Suite = Manet_crypto.Suite

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* PRNG                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_prng_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_prng_float_bounds () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_copy_replays () =
  let g = Prng.create ~seed:3 in
  let _ = Prng.bits64 g in
  let h = Prng.copy g in
  Alcotest.(check int64) "copy replays" (Prng.bits64 g) (Prng.bits64 h)

let test_prng_split_independent () =
  let g = Prng.create ~seed:5 in
  let h = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 g) (Prng.bits64 h) then incr same
  done;
  Alcotest.(check bool) "split stream diverges" true (!same < 4)

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_bytes_length () =
  let g = Prng.create ~seed:13 in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (String.length (Prng.bytes g n)))
    [ 0; 1; 7; 8; 9; 31; 32; 33 ]

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential g ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 4" true (abs_float (mean -. 4.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Bignum                                                             *)
(* ------------------------------------------------------------------ *)

let bn = Bignum.of_int
let bn_testable = Alcotest.testable Bignum.pp Bignum.equal

(* Generator of arbitrary-size integers via decimal strings. *)
let gen_bignum_of_bits bits =
  QCheck.Gen.(
    map2
      (fun seed neg ->
        let g = Prng.create ~seed in
        let v = Bignum.random g ~bits in
        if neg then Bignum.neg v else v)
      int bool)

let arb_bignum ?(bits = 300) () =
  QCheck.make ~print:Bignum.to_string (gen_bignum_of_bits bits)

let test_bignum_small_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check (option int))
        (string_of_int i) (Some i)
        (Bignum.to_int_opt (bn i)))
    [ 0; 1; -1; 42; -42; 67108863; 67108864; -67108865; max_int / 2 ]

let test_bignum_decimal_known () =
  let cases =
    [
      ("0", 0);
      ("12345678901234567", 12345678901234567);
      ("-987654321", -987654321);
    ]
  in
  List.iter
    (fun (s, i) ->
      Alcotest.check bn_testable s (bn i) (Bignum.of_string s);
      Alcotest.(check string) s s (Bignum.to_string (bn i)))
    cases

let test_bignum_decimal_large () =
  let s = "123456789012345678901234567890123456789012345678901234567890" in
  Alcotest.(check string) "roundtrip" s (Bignum.to_string (Bignum.of_string s));
  let neg = "-" ^ s in
  Alcotest.(check string) "negative" neg (Bignum.to_string (Bignum.of_string neg))

let test_bignum_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bignum.of_string: bad digit")
        (fun () -> ignore (Bignum.of_string s)))
    [ "12a"; "1.5" ];
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty")
    (fun () -> ignore (Bignum.of_string ""))

let test_bignum_hex () =
  Alcotest.(check string) "hex" "deadbeef" (Bignum.to_hex (Bignum.of_hex "DEADBEEF"));
  Alcotest.check bn_testable "hex value" (bn 0xdeadbeef) (Bignum.of_hex "deadbeef");
  Alcotest.(check string) "zero" "0" (Bignum.to_hex Bignum.zero)

let test_bignum_bytes_be () =
  let v = Bignum.of_hex "0102030405060708090a" in
  Alcotest.(check string)
    "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
    (Bignum.to_bytes_be v);
  Alcotest.check bn_testable "roundtrip" v
    (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  Alcotest.(check int) "padded" 16 (String.length (Bignum.to_bytes_be ~pad:16 v))

let prop_add_commutes =
  qtest "bignum: a+b = b+a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_sub_inverse =
  qtest "bignum: (a+b)-b = a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_mul_commutes =
  qtest "bignum: a*b = b*a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_mul_distributes =
  qtest "bignum: a*(b+c) = a*b + a*c"
    QCheck.(triple (arb_bignum ()) (arb_bignum ()) (arb_bignum ()))
    (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_karatsuba_matches_school =
  (* Operands large enough to cross the Karatsuba threshold; compare the
     product against an independent identity: (a*b) / a = b. *)
  qtest ~count:20 "bignum: karatsuba consistent with division"
    QCheck.(pair (arb_bignum ~bits:2000 ()) (arb_bignum ~bits:1800 ()))
    (fun (a, b) ->
      let a = Bignum.abs a and b = Bignum.abs b in
      QCheck.assume (Bignum.sign a > 0);
      let p = Bignum.mul a b in
      let q, r = Bignum.divmod p a in
      Bignum.equal q b && Bignum.equal r Bignum.zero)

let prop_divmod_invariant =
  qtest "bignum: a = b*q + r with |r| < |b|"
    QCheck.(pair (arb_bignum ~bits:500 ()) (arb_bignum ~bits:200 ()))
    (fun (a, b) ->
      QCheck.assume (Bignum.sign b <> 0);
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul b q) r)
      && Bignum.compare (Bignum.abs r) (Bignum.abs b) < 0
      && (Bignum.sign r = 0 || Bignum.sign r = Bignum.sign a))

let prop_divmod_matches_int =
  qtest "bignum: divmod matches native int semantics"
    QCheck.(pair int int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      (* Avoid abs min_int overflow in the test oracle itself. *)
      QCheck.assume (a > min_int && b > min_int);
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.equal q (bn (a / b)) && Bignum.equal r (bn (a mod b)))

let prop_mod_nonneg =
  qtest "bignum: mod_ is in [0, m)"
    QCheck.(pair (arb_bignum ()) (arb_bignum ~bits:100 ()))
    (fun (a, m) ->
      let m = Bignum.abs m in
      QCheck.assume (Bignum.sign m > 0);
      let r = Bignum.mod_ a m in
      Bignum.sign r >= 0 && Bignum.compare r m < 0)

let prop_shift_left_is_mul_pow2 =
  qtest "bignum: shift_left n k = n * 2^k"
    QCheck.(pair (arb_bignum ()) (int_bound 200))
    (fun (n, k) ->
      let pow2 = Bignum.shift_left Bignum.one k in
      Bignum.equal (Bignum.shift_left n k) (Bignum.mul n pow2))

let prop_shift_right_inverse =
  qtest "bignum: shift_right (shift_left n k) k = n"
    QCheck.(pair (arb_bignum ()) (int_bound 200))
    (fun (n, k) -> Bignum.equal (Bignum.shift_right (Bignum.shift_left n k) k) n)

let prop_numbits =
  qtest "bignum: 2^(numbits-1) <= |n| < 2^numbits"
    (arb_bignum ())
    (fun n ->
      QCheck.assume (Bignum.sign n <> 0);
      let nb = Bignum.numbits n in
      let lo = Bignum.shift_left Bignum.one (nb - 1) in
      let hi = Bignum.shift_left Bignum.one nb in
      let a = Bignum.abs n in
      Bignum.compare lo a <= 0 && Bignum.compare a hi < 0)

let prop_string_roundtrip =
  qtest "bignum: of_string (to_string n) = n"
    (arb_bignum ~bits:400 ())
    (fun n -> Bignum.equal n (Bignum.of_string (Bignum.to_string n)))

let prop_egcd =
  qtest "bignum: egcd bezout identity"
    QCheck.(pair (arb_bignum ~bits:200 ()) (arb_bignum ~bits:200 ()))
    (fun (a, b) ->
      let a = Bignum.abs a and b = Bignum.abs b in
      let g, x, y = Bignum.egcd a b in
      Bignum.equal g (Bignum.add (Bignum.mul a x) (Bignum.mul b y))
      && Bignum.equal g (Bignum.gcd a b))

let prop_mod_inverse =
  qtest "bignum: a * inv(a) = 1 (mod m)"
    QCheck.(pair (arb_bignum ~bits:200 ()) (arb_bignum ~bits:200 ()))
    (fun (a, m) ->
      let m = Bignum.abs m in
      QCheck.assume (Bignum.compare m Bignum.two > 0);
      match Bignum.mod_inverse a m with
      | None -> not (Bignum.equal (Bignum.gcd (Bignum.abs a) m) Bignum.one)
      | Some inv -> Bignum.equal (Bignum.mod_ (Bignum.mul a inv) m) Bignum.one)

let naive_mod_pow b e m =
  (* Oracle for small exponents. *)
  let rec go acc i =
    if i = 0 then acc else go (Bignum.mod_ (Bignum.mul acc b) m) (i - 1)
  in
  go (Bignum.mod_ Bignum.one m) e

let prop_mod_pow_matches_naive =
  qtest ~count:50 "bignum: mod_pow matches naive oracle"
    QCheck.(triple (arb_bignum ~bits:60 ()) (int_bound 40) (arb_bignum ~bits:60 ()))
    (fun (b, e, m) ->
      let m = Bignum.abs m in
      QCheck.assume (Bignum.sign m > 0);
      Bignum.equal (Bignum.mod_pow b (bn e) m) (naive_mod_pow b e m))

let prop_mod_pow_montgomery_matches_generic =
  (* Odd moduli take the Montgomery path in mod_pow, and mod_pow_monty
     reuses a prebuilt context; both must agree with the division-based
     implementation bit for bit.  Moduli span 2-40 30-bit limbs, with
     2^(30k) +/- 1 among them; exponents cross the 64-bit switch from
     square-and-multiply to the fixed window; bases include 0, 1, m-1,
     values >= m and negative values. *)
  let print (seed, limbs, mk, (ek, bk)) =
    Printf.sprintf "seed=%d limbs=%d modulus=%d exponent=%d base=%d" seed limbs
      mk ek bk
  in
  qtest ~count:100 "bignum: montgomery mod_pow = generic mod_pow"
    (QCheck.make ~print
       QCheck.Gen.(
         quad int (int_range 2 40) (int_bound 2) (pair (int_bound 5) (int_bound 5))))
    (fun (seed, limbs, mk, (ek, bk)) ->
      let g = Prng.create ~seed in
      let pow2 bits = Bignum.shift_left Bignum.one bits in
      let m =
        match mk with
        | 0 -> Bignum.add (pow2 (30 * (limbs - 1))) Bignum.one
        | 1 -> Bignum.sub (pow2 (30 * limbs)) Bignum.one
        | _ ->
            let bits = (30 * (limbs - 1)) + 1 + Prng.int g 30 in
            let v = Bignum.add (Bignum.random g ~bits) (pow2 (bits - 1)) in
            if Bignum.testbit v 0 then v else Bignum.add v Bignum.one
      in
      let e =
        match ek with
        | 0 -> Bignum.zero
        | 1 -> Bignum.one
        | 2 -> Bignum.two
        | 3 -> bn 65537
        | _ -> Bignum.random g ~bits:(1 + Prng.int g 1100)
      in
      let b =
        match bk with
        | 0 -> Bignum.zero
        | 1 -> Bignum.one
        | 2 -> Bignum.sub m Bignum.one
        | 3 -> Bignum.add m (Bignum.random g ~bits:(Bignum.numbits m + 64))
        | 4 -> Bignum.neg (Bignum.random g ~bits:(Bignum.numbits m + 8))
        | _ -> Bignum.random_below g m
      in
      let expected = Bignum.mod_pow_generic b e m in
      match Bignum.monty m with
      | None -> false
      | Some ctx ->
          Bignum.equal (Bignum.mod_pow b e m) expected
          && Bignum.equal (Bignum.mod_pow_monty ctx b e) expected)

(* Oracles for the limb-packing conversions: the per-byte fold
   [of_bytes_be] used to be, and hex rendered through the byte encoding
   with leading zeros stripped. *)
let of_bytes_fold s =
  String.fold_left
    (fun acc c -> Bignum.add (Bignum.shift_left acc 8) (bn (Char.code c)))
    Bignum.zero s

let to_hex_via_bytes v =
  let h = Sha256.hex (Bignum.to_bytes_be v) in
  let i = ref 0 in
  while !i < String.length h - 1 && h.[!i] = '0' do incr i done;
  String.sub h !i (String.length h - !i)

let prop_bytes_hex_roundtrip =
  qtest ~count:300 "bignum: byte/hex conversions round-trip, match oracles"
    QCheck.(pair (int_bound 8) (string_of_size QCheck.Gen.(int_bound 72)))
    (fun (zeros, body) ->
      let s = String.make zeros '\000' ^ body in
      let v = Bignum.of_bytes_be s in
      let len = String.length s in
      Bignum.equal v (of_bytes_fold s)
      && (len = 0 || String.equal (Bignum.to_bytes_be ~pad:len v) s)
      && Bignum.equal (Bignum.of_hex (Sha256.hex s)) v
      && String.equal (Bignum.to_hex v) (to_hex_via_bytes v)
      && Bignum.equal (Bignum.of_hex (Bignum.to_hex v)) v)

let test_mod_pow_even_modulus () =
  (* Even moduli must still work (generic path). *)
  let b = Bignum.of_string "123456789123456789" in
  let e = Bignum.of_int 65537 in
  let m = Bignum.shift_left (Bignum.of_string "987654321987654321") 1 in
  Alcotest.check bn_testable "even modulus" (naive_mod_pow b 7 m)
    (Bignum.mod_pow b (bn 7) m);
  Alcotest.(check bool) "big even exponentiation runs" true
    (Bignum.compare (Bignum.mod_pow b e m) m < 0)

let test_mod_pow_fermat () =
  (* Fermat's little theorem at a known 61-bit Mersenne prime. *)
  let p = Bignum.of_string "2305843009213693951" in
  let g = Prng.create ~seed:23 in
  for _ = 1 to 10 do
    let a = Bignum.add Bignum.one (Bignum.random_below g (Bignum.sub p Bignum.one)) in
    Alcotest.check bn_testable "a^(p-1) = 1 mod p" Bignum.one
      (Bignum.mod_pow a (Bignum.sub p Bignum.one) p)
  done

let test_primality_known () =
  let g = Prng.create ~seed:29 in
  let primes = [ "2"; "3"; "65537"; "2305843009213693951"; "170141183460469231731687303715884105727" ] in
  let composites = [ "1"; "0"; "4"; "65536"; "561"; "341550071728321"; "2305843009213693953" ] in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("prime " ^ s) true
        (Bignum.is_probable_prime g (Bignum.of_string s)))
    primes;
  List.iter
    (fun s ->
      Alcotest.(check bool) ("composite " ^ s) false
        (Bignum.is_probable_prime g (Bignum.of_string s)))
    composites

let test_generate_prime () =
  let g = Prng.create ~seed:31 in
  List.iter
    (fun bits ->
      let p = Bignum.generate_prime g ~bits in
      Alcotest.(check int) "width" bits (Bignum.numbits p);
      Alcotest.(check bool) "prime" true (Bignum.is_probable_prime g p);
      Alcotest.(check bool) "odd" true (Bignum.testbit p 0))
    [ 16; 64; 128 ]

let test_random_below () =
  let g = Prng.create ~seed:37 in
  let n = Bignum.of_string "1000000007" in
  for _ = 1 to 200 do
    let v = Bignum.random_below g n in
    Alcotest.(check bool) "in range" true
      (Bignum.sign v >= 0 && Bignum.compare v n < 0)
  done

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors)                                       *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
         ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Sha256.digest_hex input))
    cases

let test_sha256_million_a () =
  let input = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex input)

let prop_sha256_streaming =
  qtest "sha256: streaming chunks match one-shot"
    QCheck.(pair (string_of_size QCheck.Gen.(int_bound 500)) (int_bound 64))
    (fun (s, chunk) ->
      let chunk = max 1 chunk in
      let ctx = Sha256.init () in
      let len = String.length s in
      let pos = ref 0 in
      while !pos < len do
        let take = min chunk (len - !pos) in
        Sha256.update ctx (String.sub s !pos take);
        pos := !pos + take
      done;
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

let test_sha256_block_boundaries () =
  (* Lengths straddling block/padding boundaries exercise the padding
     arithmetic. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      Sha256.update ctx s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest_hex s)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 (RFC 4231 vectors)                                     *)
(* ------------------------------------------------------------------ *)

let hexval c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "hexval"

let of_hex s =
  String.init (String.length s / 2) (fun i ->
      Char.chr ((hexval s.[2 * i] lsl 4) lor hexval s.[(2 * i) + 1]))

let test_hmac_rfc4231 () =
  let cases =
    [
      ( of_hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( of_hex (String.concat "" (List.init 20 (fun _ -> "aa"))),
        of_hex (String.concat "" (List.init 50 (fun _ -> "dd"))),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      (* Key longer than one block (131 bytes of 0xaa). *)
      ( of_hex (String.concat "" (List.init 131 (fun _ -> "aa"))),
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ]
  in
  List.iter
    (fun (key, msg, expected) ->
      Alcotest.(check string) "tag" expected
        (Sha256.hex (Hmac.hmac_sha256 ~key msg)))
    cases

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.hmac_sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "rejects bad tag" false
    (Hmac.verify ~key msg ~tag:(String.map (fun c -> Char.chr (Char.code c lxor 1)) tag));
  Alcotest.(check bool) "rejects bad msg" false (Hmac.verify ~key "other" ~tag);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key msg ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* RSA                                                                *)
(* ------------------------------------------------------------------ *)

let test_rsa_sign_verify () =
  let g = Prng.create ~seed:41 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let msg = "route request 42" in
  let signature = Rsa.sign priv msg in
  Alcotest.(check int) "sig size" (Rsa.modulus_bytes pub) (String.length signature);
  Alcotest.(check bool) "accepts" true (Rsa.verify pub ~msg ~signature);
  Alcotest.(check bool) "rejects other msg" false
    (Rsa.verify pub ~msg:"route request 43" ~signature)

let test_rsa_wrong_key () =
  let g = Prng.create ~seed:43 in
  let pub1, priv1 = Rsa.generate g ~bits:256 in
  let pub2, _ = Rsa.generate g ~bits:256 in
  let msg = "hello" in
  let signature = Rsa.sign priv1 msg in
  Alcotest.(check bool) "own key accepts" true (Rsa.verify pub1 ~msg ~signature);
  Alcotest.(check bool) "other key rejects" false (Rsa.verify pub2 ~msg ~signature)

let test_rsa_tampered_signature () =
  let g = Prng.create ~seed:47 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let msg = "msg" in
  let signature = Bytes.of_string (Rsa.sign priv msg) in
  Bytes.set signature 0 (Char.chr (Char.code (Bytes.get signature 0) lxor 0x80));
  Alcotest.(check bool) "rejects" false
    (Rsa.verify pub ~msg ~signature:(Bytes.unsafe_to_string signature));
  Alcotest.(check bool) "rejects wrong length" false
    (Rsa.verify pub ~msg ~signature:"short")

let test_rsa_pk_serialization () =
  let g = Prng.create ~seed:53 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let bytes = Rsa.public_key_to_bytes pub in
  (match Rsa.public_key_of_bytes bytes with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pub' ->
      let msg = "serialized" in
      let signature = Rsa.sign priv msg in
      Alcotest.(check bool) "decoded key verifies" true
        (Rsa.verify pub' ~msg ~signature));
  Alcotest.(check bool) "garbage rejected" true
    (Rsa.public_key_of_bytes "\x00" = None);
  Alcotest.(check bool) "truncated rejected" true
    (Rsa.public_key_of_bytes (String.sub bytes 0 (String.length bytes - 1)) = None)

let test_rsa_crt_matches_direct () =
  (* The CRT signing path must produce byte-identical signatures to the
     direct exponentiation. *)
  let g = Prng.create ~seed:101 in
  let _, priv = Rsa.generate g ~bits:384 in
  for i = 1 to 10 do
    let msg = Printf.sprintf "message %d" i in
    Alcotest.(check string) msg (Rsa.sign_no_crt priv msg) (Rsa.sign priv msg)
  done

let test_rsa_determinism () =
  (* Same PRNG seed must give the same key pair: experiments rely on it. *)
  let gen seed =
    let g = Prng.create ~seed in
    let pub, _ = Rsa.generate g ~bits:128 in
    Rsa.public_key_to_bytes pub
  in
  Alcotest.(check string) "reproducible" (gen 99) (gen 99)

(* Pins the exact bytes of keys and signatures across changes to the
   bignum arithmetic: an RSA value is unique, so any correct rewrite of
   the exponentiation must reproduce this digest.  Keys come from fixed
   seeds; message [i] (of length [i]) is signed by key [i mod 6]. *)
let pinned_signatures_digest =
  "71f2361b8d799c8bd565e6ca9f8001cc34f58413156e0bb91ea2c9e9ace586d9"

let test_rsa_pinned_signatures () =
  let keys =
    List.map
      (fun (seed, bits) -> Rsa.generate (Prng.create ~seed) ~bits)
      [ (1001, 512); (1002, 512); (1003, 512); (1004, 512); (1005, 256); (1006, 1024) ]
    |> Array.of_list
  in
  let h = Sha256.init () in
  Array.iter (fun (pub, _) -> Sha256.update h (Rsa.public_key_to_bytes pub)) keys;
  for i = 1 to 200 do
    let msg = String.init i (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xFF)) in
    let pub, priv = keys.(i mod Array.length keys) in
    let signature = Rsa.sign priv msg in
    Alcotest.(check string) "crt = direct" (Rsa.sign_no_crt priv msg) signature;
    Alcotest.(check bool) "verifies" true (Rsa.verify pub ~msg ~signature);
    Sha256.update h signature
  done;
  Alcotest.(check string) "pinned digest" pinned_signatures_digest
    (Sha256.hex (Sha256.finalize h))

(* ------------------------------------------------------------------ *)
(* Mock signatures and the suite interface                            *)
(* ------------------------------------------------------------------ *)

let test_mock_sig () =
  let reg = Mock_sig.create_registry () in
  let g = Prng.create ~seed:59 in
  let pk, sk = Mock_sig.generate reg g in
  let msg = "areq" in
  let signature = Mock_sig.sign sk msg in
  Alcotest.(check bool) "accepts" true
    (Mock_sig.verify reg ~pk_bytes:pk ~msg ~signature);
  Alcotest.(check bool) "rejects other msg" false
    (Mock_sig.verify reg ~pk_bytes:pk ~msg:"arep" ~signature);
  Alcotest.(check bool) "unknown pk rejects" false
    (Mock_sig.verify reg ~pk_bytes:(String.make 32 'z') ~msg ~signature)

let test_mock_registries_isolated () =
  let reg1 = Mock_sig.create_registry () and reg2 = Mock_sig.create_registry () in
  let g = Prng.create ~seed:61 in
  let pk, sk = Mock_sig.generate reg1 g in
  let signature = Mock_sig.sign sk "m" in
  Alcotest.(check bool) "own registry" true
    (Mock_sig.verify reg1 ~pk_bytes:pk ~msg:"m" ~signature);
  Alcotest.(check bool) "foreign registry" false
    (Mock_sig.verify reg2 ~pk_bytes:pk ~msg:"m" ~signature)

(* Two distinct messages with the same full [String.hash]: they share a
   signature-memo slot, and a memo that compared hashes instead of
   message bytes would hand the second the first one's signature. *)
let hash_collision () =
  let seen = Hashtbl.create 65536 in
  let rec go i =
    let m = Printf.sprintf "collide-%d" i in
    let h = String.hash m in
    match Hashtbl.find_opt seen h with
    | Some m' -> (m', m)
    | None ->
        Hashtbl.add seen h m;
        go (i + 1)
  in
  go 0

(* 600 sign requests drawn from a pool of 400 messages, so the RSA
   suite's 256-slot memo both hits and evicts.  The pool holds the empty
   message and a full-hash collision pair, which open the request list
   back to back (the second of the pair collides with an occupied slot);
   the rest are seeded draws with repeats. *)
let memo_requests () =
  let a, b = hash_collision () in
  let g = Prng.create ~seed:79 in
  let pool =
    Array.init 400 (fun i ->
        match i with
        | 0 -> ""
        | 1 -> a
        | 2 -> b
        | _ -> Prng.bytes g (1 + Prng.int g 80))
  in
  let head = [ 0; 1; 2; 1; 2; 0 ] in
  List.map (fun i -> pool.(i))
    (head @ List.init (600 - List.length head) (fun _ -> Prng.int g 400))

let suite_roundtrip suite =
  let kp = suite.Suite.generate () in
  let msg = "suite message" in
  let signature = kp.Suite.sign msg in
  Alcotest.(check bool) "accepts" true
    (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg ~signature);
  Alcotest.(check bool) "rejects" false
    (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"other" ~signature);
  Alcotest.(check int) "sig size advertised" suite.Suite.signature_size
    (String.length signature);
  (* Repeated requests: every signature verifies for its own message,
     and a message always gets the bytes of its first signature. *)
  let first = Hashtbl.create 400 in
  List.iter
    (fun msg ->
      let signature = kp.Suite.sign msg in
      if not (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg ~signature)
      then Alcotest.failf "signature of %S does not verify" msg;
      match Hashtbl.find_opt first msg with
      | None -> Hashtbl.add first msg signature
      | Some s0 ->
          Alcotest.(check string) (Printf.sprintf "stable %S" msg) s0 signature)
    (memo_requests ())

let test_suite_rsa () = suite_roundtrip (Suite.rsa ~bits:256 (Prng.create ~seed:67))
let test_suite_mock () = suite_roundtrip (Suite.mock (Prng.create ~seed:71))

let suite_counters suite =
  let kp = suite.Suite.generate () in
  let s = kp.Suite.sign "a" in
  ignore (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"a" ~signature:s);
  ignore (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"b" ~signature:s);
  Alcotest.(check int) "signs" 1 suite.Suite.sign_count;
  Alcotest.(check int) "verifies" 2 suite.Suite.verify_count;
  Suite.reset_counters suite;
  Alcotest.(check int) "reset signs" 0 suite.Suite.sign_count;
  Alcotest.(check int) "reset verifies" 0 suite.Suite.verify_count;
  (* Counters and the subscriber count sign requests, memo hits
     included. *)
  let ops = ref 0 and op_bytes = ref 0 in
  Suite.set_on_op suite
    (Some
       (fun ~op ~bytes ->
         match op with
         | Suite.Sign ->
             incr ops;
             op_bytes := !op_bytes + bytes
         | Suite.Verify | Suite.Hash -> ()));
  let reqs = memo_requests () in
  List.iter (fun msg -> ignore (kp.Suite.sign msg)) reqs;
  Suite.set_on_op suite None;
  let n = List.length reqs in
  Alcotest.(check int) "signs = requests" n suite.Suite.sign_count;
  Alcotest.(check int) "on_op signs = requests" n !ops;
  Alcotest.(check int) "on_op bytes"
    (List.fold_left (fun acc m -> acc + String.length m) 0 reqs)
    !op_bytes;
  Alcotest.(check int) "hash blocks"
    (List.fold_left (fun acc m -> acc + Sha256.blocks_of_len (String.length m)) 0 reqs)
    suite.Suite.sha256_blocks

let test_suite_counters () = suite_counters (Suite.mock (Prng.create ~seed:73))
let test_suite_counters_rsa () = suite_counters (Suite.rsa ~bits:256 (Prng.create ~seed:83))

let suites =
  [
    ( "crypto.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "bytes length" `Quick test_prng_bytes_length;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
      ] );
    ( "crypto.bignum",
      [
        Alcotest.test_case "small roundtrip" `Quick test_bignum_small_roundtrip;
        Alcotest.test_case "decimal known" `Quick test_bignum_decimal_known;
        Alcotest.test_case "decimal large" `Quick test_bignum_decimal_large;
        Alcotest.test_case "of_string invalid" `Quick test_bignum_of_string_invalid;
        Alcotest.test_case "hex" `Quick test_bignum_hex;
        Alcotest.test_case "bytes be" `Quick test_bignum_bytes_be;
        prop_add_commutes;
        prop_add_sub_inverse;
        prop_mul_commutes;
        prop_mul_distributes;
        prop_karatsuba_matches_school;
        prop_divmod_invariant;
        prop_divmod_matches_int;
        prop_mod_nonneg;
        prop_shift_left_is_mul_pow2;
        prop_shift_right_inverse;
        prop_numbits;
        prop_string_roundtrip;
        prop_egcd;
        prop_mod_inverse;
        prop_mod_pow_matches_naive;
        prop_mod_pow_montgomery_matches_generic;
        prop_bytes_hex_roundtrip;
        Alcotest.test_case "mod_pow even modulus" `Quick test_mod_pow_even_modulus;
        Alcotest.test_case "fermat" `Quick test_mod_pow_fermat;
        Alcotest.test_case "primality known" `Quick test_primality_known;
        Alcotest.test_case "generate prime" `Quick test_generate_prime;
        Alcotest.test_case "random below" `Quick test_random_below;
      ] );
    ( "crypto.sha256",
      [
        Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "million a" `Slow test_sha256_million_a;
        prop_sha256_streaming;
        Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
        Alcotest.test_case "verify" `Quick test_hmac_verify;
      ] );
    ( "crypto.rsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
        Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
        Alcotest.test_case "tampered signature" `Quick test_rsa_tampered_signature;
        Alcotest.test_case "pk serialization" `Quick test_rsa_pk_serialization;
        Alcotest.test_case "crt matches direct" `Quick test_rsa_crt_matches_direct;
        Alcotest.test_case "determinism" `Quick test_rsa_determinism;
        Alcotest.test_case "pinned signatures" `Quick test_rsa_pinned_signatures;
      ] );
    ( "crypto.suite",
      [
        Alcotest.test_case "mock sig" `Quick test_mock_sig;
        Alcotest.test_case "mock registries isolated" `Quick test_mock_registries_isolated;
        Alcotest.test_case "rsa suite" `Quick test_suite_rsa;
        Alcotest.test_case "mock suite" `Quick test_suite_mock;
        Alcotest.test_case "op counters" `Quick test_suite_counters;
        Alcotest.test_case "rsa op counters" `Quick test_suite_counters_rsa;
      ] );
  ]
