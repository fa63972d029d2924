(* Sign-magnitude bignums over 30-bit limbs stored little-endian in int
   arrays.  30 bits keeps every bound inside OCaml's 63-bit native ints:
   a limb product is < 2^60, a column sum t + a*b + c is < 2^60, and
   Knuth division's qhat*v and rhat*base stay < 2^61.

   manethot: allow-file hot-alloc hot-poly — values are immutable, so
   each signed operation allocates its result's limb array; the working
   refs/loops below are the limb-school algorithms themselves.  The
   exponentiation that dominates signing and verifying allocates one
   scratch array, its window table and its result per call, and no
   Montgomery product allocates. *)

let base_bits = 30
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign is -1, 0 or 1; mag has no trailing (high-order) zero
   limb; sign = 0 iff mag is empty. *)

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i < 0 then -1 else 1 in
    let v = ref (abs i) in
    let limbs = ref [] in
    while !v > 0 do
      limbs := (!v land limb_mask) :: !limbs;
      v := !v lsr base_bits
    done;
    { sign; mag = Array.of_list (List.rev !limbs) }
  end

(* manetdom: allow toplevel-state — interned constants: a bignum's limb
   array is never written after construction (every operation allocates
   a fresh magnitude), so sharing [one]/[two] across domains is
   read-only sharing. *)
let one = of_int 1

(* manetdom: allow toplevel-state — same read-only bignum-constant
   argument as [one] above. *)
let two = of_int 2

let sign n = n.sign
let numbits_of_limb l =
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let numbits n =
  let len = Array.length n.mag in
  if len = 0 then 0
  else ((len - 1) * base_bits) + numbits_of_limb n.mag.(len - 1)

let to_int_opt n =
  if numbits n <= 62 then begin
    let v = ref 0 in
    for i = Array.length n.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor n.mag.(i)
    done;
    Some (n.sign * !v)
  end
  else None

(* --- magnitude primitives ------------------------------------------- *)

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      (* Propagate the final carry; r + ai*bj + carry <= (base-1)^2 +
         2(base-1) < 2^60, so the carry is always below one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land limb_mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    r
  end

let karatsuba_threshold = 32

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if min la lb < karatsuba_threshold then mul_mag_school a b
  else begin
    (* Karatsuba: split at half of the shorter operand's partner. *)
    let m = max la lb / 2 in
    let lo x = Array.sub x 0 (min m (Array.length x)) in
    let hi x =
      if Array.length x <= m then [||] else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let s_a = add_mag a0 a1 and s_b = add_mag b0 b1 in
    let z1 = mul_mag s_a s_b in
    (* z1 := z1 - z0 - z2 *)
    let z1 = sub_mag z1 z0 in
    let z1 = sub_mag z1 z2 in
    let r = Array.make (la + lb + 1) 0 in
    let accumulate dst off src =
      let carry = ref 0 in
      Array.iteri
        (fun i v ->
          let s = dst.(off + i) + v + !carry in
          dst.(off + i) <- s land limb_mask;
          carry := s lsr base_bits)
        src;
      let k = ref (off + Array.length src) in
      while !carry <> 0 do
        let s = dst.(!k) + !carry in
        dst.(!k) <- s land limb_mask;
        carry := s lsr base_bits;
        incr k
      done
    in
    accumulate r 0 z0;
    accumulate r m z1;
    accumulate r (2 * m) z2;
    r
  end

let shift_left_mag a s =
  (* s arbitrary non-negative bit count *)
  if Array.length a = 0 then [||]
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    r
  end

let shift_right_mag a s =
  let limb_shift = s / base_bits and bit_shift = s mod base_bits in
  let la = Array.length a in
  if limb_shift >= la then [||]
  else begin
    let n = la - limb_shift in
    let r = Array.make n 0 in
    if bit_shift = 0 then Array.blit a limb_shift r 0 n
    else
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
    r
  end

(* Knuth TAOCP vol 2, algorithm D, with the exposition of Hacker's
   Delight's divmnu.  Requires |u| >= |v| and |v| >= 2 limbs.  Returns
   (quotient, remainder) magnitudes. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u in
  (* Normalize so the divisor's top limb has its high bit set. *)
  let s = base_bits - numbits_of_limb v.(n - 1) in
  let vn = shift_right_mag (shift_left_mag v s) 0 in
  let vn = if Array.length vn > n then Array.sub vn 0 n else vn in
  let un = shift_left_mag u s in
  let un =
    (* ensure un has exactly m+1 limbs *)
    if Array.length un >= m + 1 then Array.sub un 0 (m + 1)
    else begin
      let r = Array.make (m + 1) 0 in
      Array.blit un 0 r 0 (Array.length un);
      r
    end
  in
  let q = Array.make (m - n + 1) 0 in
  for j = m - n downto 0 do
    let num = (un.(j + n) * base) + un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * vn.(n - 2) > (!rhat * base) + un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract. *)
    let k = ref 0 in
    let t = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      t := un.(i + j) - !k - (p land limb_mask);
      un.(i + j) <- !t land limb_mask;
      k := (p lsr base_bits) - (!t asr base_bits)
    done;
    t := un.(j + n) - !k;
    un.(j + n) <- !t land limb_mask;
    q.(j) <- !qhat;
    if !t < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      q.(j) <- q.(j) - 1;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let w = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- w land limb_mask;
        carry := w lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry) land limb_mask
    end
  done;
  let r = shift_right_mag (Array.sub un 0 n) s in
  (q, r)

let divmod_mag_single u v0 =
  let lu = Array.length u in
  let q = Array.make lu 0 in
  let r = ref 0 in
  for i = lu - 1 downto 0 do
    let cur = (!r * base) + u.(i) in
    q.(i) <- cur / v0;
    r := cur mod v0
  done;
  (q, [| !r |])

let divmod_mag u v =
  if Array.length v = 0 then raise Division_by_zero
  else if compare_mag u v < 0 then ([||], u)
  else if Array.length v = 1 then divmod_mag_single u v.(0)
  else divmod_mag_knuth u v

(* --- signed operations ----------------------------------------------- *)

let neg n = if n.sign = 0 then n else { n with sign = -n.sign }
let abs n = if n.sign < 0 then neg n else n

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match compare_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q_mag, r_mag = divmod_mag a.mag b.mag in
  let q = normalize (a.sign * b.sign) q_mag in
  let r = normalize a.sign r_mag in
  (q, r)

let rem a b = snd (divmod a b)

let mod_ a m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_: modulus must be positive";
  let r = rem a m in
  if r.sign < 0 then add r m else r

let shift_left n s =
  if s < 0 then invalid_arg "Bignum.shift_left";
  if n.sign = 0 then zero else normalize n.sign (shift_left_mag n.mag s)

let shift_right n s =
  if s < 0 then invalid_arg "Bignum.shift_right";
  if n.sign = 0 then zero else normalize n.sign (shift_right_mag n.mag s)

let testbit n i =
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length n.mag && (n.mag.(limb) lsr bit) land 1 = 1

(* --- conversions ------------------------------------------------------ *)

(* [bits_at mag pos w] is the [w]-bit field (w <= base_bits) of the
   magnitude [mag] starting at bit [pos]; bits past the top read as 0. *)
let bits_at mag pos w =
  let limb = pos / base_bits and off = pos mod base_bits in
  let len = Array.length mag in
  if limb >= len then 0
  else begin
    let v = mag.(limb) lsr off in
    let v =
      if off + w > base_bits && limb + 1 < len then
        v lor (mag.(limb + 1) lsl (base_bits - off))
      else v
    in
    v land ((1 lsl w) - 1)
  end

(* The unsigned value of [len] big-endian [w]-bit digits, [digit i] being
   the i-th from the most significant, packed straight into limbs. *)
let of_digits_be ~w len digit =
  let mag = Array.make (((len * w) + base_bits - 1) / base_bits) 0 in
  for i = 0 to len - 1 do
    let v = digit (len - 1 - i) in
    let pos = i * w in
    let limb = pos / base_bits and off = pos mod base_bits in
    mag.(limb) <- mag.(limb) lor ((v lsl off) land limb_mask);
    if off + w > base_bits then
      mag.(limb + 1) <- mag.(limb + 1) lor (v lsr (base_bits - off))
  done;
  normalize 1 mag

let of_bytes_be s = of_digits_be ~w:8 (String.length s) (fun i -> Char.code s.[i])

let to_bytes_be ?(pad = 0) n =
  let len = max 1 (max pad ((numbits n + 7) / 8)) in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b (len - 1 - i) (Char.chr (bits_at n.mag (8 * i) 8))
  done;
  Bytes.unsafe_to_string b

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bignum.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start = len then invalid_arg "Bignum.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bignum.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let to_string n =
  if n.sign = 0 then "0"
  else begin
    (* Peel 7 decimal digits at a time with single-limb division. *)
    let chunk = 10_000_000 in
    let buf = Buffer.create 32 in
    let mag = ref (abs n) in
    let parts = ref [] in
    while !mag.sign <> 0 do
      let q, r = divmod_mag !mag.mag [| chunk |] in
      let r0 = if Array.length r = 0 then 0 else r.(0) in
      parts := r0 :: !parts;
      mag := normalize 1 q
    done;
    (match !parts with
    | [] -> ()
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%07d" p)) rest);
    (if n.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_hex s =
  of_digits_be ~w:4 (String.length s) (fun i ->
      match s.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> invalid_arg "Bignum.of_hex: bad digit")

let to_hex n =
  if n.sign = 0 then "0"
  else begin
    let digits = (numbits n + 3) / 4 in
    String.init digits (fun i ->
        "0123456789abcdef".[bits_at n.mag (4 * (digits - 1 - i)) 4])
  end

let pp fmt n = Format.pp_print_string fmt (to_string n)

(* --- number theory ---------------------------------------------------- *)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b.sign = 0 then a else gcd b (rem a b)

let egcd a b =
  (* Iterative extended Euclid on non-negative inputs. *)
  if a.sign < 0 || b.sign < 0 then invalid_arg "Bignum.egcd: negative input";
  let r0 = ref a and r1 = ref b in
  let x0 = ref one and x1 = ref zero in
  let y0 = ref zero and y1 = ref one in
  while !r1.sign <> 0 do
    let q, r = divmod !r0 !r1 in
    r0 := !r1;
    r1 := r;
    let nx = sub !x0 (mul q !x1) in
    x0 := !x1;
    x1 := nx;
    let ny = sub !y0 (mul q !y1) in
    y0 := !y1;
    y1 := ny
  done;
  (!r0, !x0, !y0)

let mod_inverse a m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_inverse: modulus must be positive";
  let g, x, _ = egcd (mod_ a m) m in
  if equal g one then Some (mod_ x m) else None

let mod_pow_generic b e m =
  if equal m one then zero
  else begin
    let result = ref one in
    let acc = ref (mod_ b m) in
    let bits = numbits e in
    for i = 0 to bits - 1 do
      if testbit e i then result := mod_ (mul !result !acc) m;
      if i < bits - 1 then acc := mod_ (mul !acc !acc) m
    done;
    !result
  end

(* Montgomery arithmetic for odd moduli (the RSA case).  Residues are
   little-endian k-limb arrays below n, where k is the modulus width and
   R = base^k.  Both kernels form the double-width product in a 2k-limb
   scratch array and then run one SOS reduction over it, so a product
   writes into its destination and allocates nothing; an exponentiation
   allocates its scratch, its window table and its result.  Every column
   sum t + a*b + c stays <= (base-1)^2 + 2(base-1) < 2^60, so carries
   never exceed one limb. *)
module Mont = struct
  type ctx = {
    n : int array; (* the modulus's limbs; k = Array.length n *)
    n0' : int; (* -n^-1 mod base *)
    r1 : int array; (* R mod n: 1 in Montgomery form *)
    r2 : int array; (* R^2 mod n: converts into Montgomery form *)
    modulus : t;
  }

  let inv_limb n0 =
    (* Hensel lifting: x <- x * (2 - n0 * x) doubles correct low bits. *)
    let x = ref 1 in
    for _ = 1 to 5 do
      x := !x * (2 - (n0 * !x)) land limb_mask
    done;
    !x land limb_mask

  let create m =
    if m.sign <= 0 || not (testbit m 0) || equal m one then None
    else begin
      let k = Array.length m.mag in
      let limbs v =
        let a = Array.make k 0 in
        Array.blit v.mag 0 a 0 (Array.length v.mag);
        a
      in
      let r_pow i = mod_ (shift_left one (i * k * base_bits)) m in
      Some
        {
          n = m.mag;
          n0' = base - inv_limb m.mag.(0);
          r1 = limbs (r_pow 1);
          r2 = limbs (r_pow 2);
          modulus = m;
        }
    end

  (* dst := t * R^-1 mod n for the 2k-limb t < n*R (SOS reduction).  Row
     i adds m*n*base^i, which clears limb i; the carry out of limb i+k is
     deferred into the next row.  The result is < 2n before the final
     conditional subtraction. *)
  let redc_into ctx t dst =
    let n = ctx.n in
    let k = Array.length n in
    let top = ref 0 in
    for i = 0 to k - 1 do
      let m = t.(i) * ctx.n0' land limb_mask in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let v = t.(i + j) + (m * n.(j)) + !c in
        t.(i + j) <- v land limb_mask;
        c := v lsr base_bits
      done;
      let v = t.(i + k) + !c + !top in
      t.(i + k) <- v land limb_mask;
      top := v lsr base_bits
    done;
    (* Highest limb where the result and n differ, or -1 if equal. *)
    let i = ref (k - 1) in
    while !i >= 0 && t.(k + !i) = n.(!i) do
      decr i
    done;
    if !top > 0 || !i < 0 || t.(k + !i) > n.(!i) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = t.(k + i) - n.(i) - !borrow in
        dst.(i) <- d land limb_mask;
        borrow := (d asr base_bits) land 1
      done
    end
    else Array.blit t k dst 0 k

  (* dst := a * b * R^-1 mod n.  [t] is the 2k-limb scratch; [dst] may
     alias [a] or [b], which are fully read before it is written. *)
  let mont_mul_into ctx t a b dst =
    let k = Array.length ctx.n in
    Array.fill t 0 k 0;
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let v = t.(i + j) + (ai * b.(j)) + !c in
        t.(i + j) <- v land limb_mask;
        c := v lsr base_bits
      done;
      t.(i + k) <- !c
    done;
    redc_into ctx t dst

  (* dst := a * a * R^-1 mod n, forming each cross product a_i*a_j
     (i < j) once, doubling, then adding the diagonal a_i^2. *)
  let mont_sqr_into ctx t a dst =
    let k = Array.length ctx.n in
    Array.fill t 0 (2 * k) 0;
    for i = 0 to k - 2 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = i + 1 to k - 1 do
        let v = t.(i + j) + (ai * a.(j)) + !c in
        t.(i + j) <- v land limb_mask;
        c := v lsr base_bits
      done;
      t.(i + k) <- !c
    done;
    let c = ref 0 in
    for i = 0 to k - 1 do
      let d = a.(i) * a.(i) in
      let lo = (t.(2 * i) lsl 1) + (d land limb_mask) + !c in
      t.(2 * i) <- lo land limb_mask;
      let hi = (t.((2 * i) + 1) lsl 1) + (d lsr base_bits) + (lo lsr base_bits) in
      t.((2 * i) + 1) <- hi land limb_mask;
      c := hi lsr base_bits
    done;
    redc_into ctx t dst

  let window = 4

  (* b^e mod n.  Exponents up to 64 bits (public exponents such as
     65537) use left-to-right square-and-multiply; longer ones a fixed
     4-bit window over a 16-entry table of b^i. *)
  let pow ctx b e =
    if e.sign < 0 then invalid_arg "Bignum.mod_pow: negative exponent";
    let k = Array.length ctx.n in
    let t = Array.make (2 * k) 0 in
    let x = Array.make k 0 in
    let b = mod_ b ctx.modulus in
    Array.blit b.mag 0 x 0 (Array.length b.mag);
    mont_mul_into ctx t x ctx.r2 x;
    let nb = numbits e in
    let acc =
      if nb = 0 then Array.copy ctx.r1
      else if nb <= 64 then begin
        let acc = Array.copy x in
        for i = nb - 2 downto 0 do
          mont_sqr_into ctx t acc acc;
          if testbit e i then mont_mul_into ctx t acc x acc
        done;
        acc
      end
      else begin
        let table = Array.make (1 lsl window) ctx.r1 in
        table.(1) <- x;
        for i = 2 to (1 lsl window) - 1 do
          let y = Array.make k 0 in
          mont_mul_into ctx t table.(i - 1) x y;
          table.(i) <- y
        done;
        let nw = (nb + window - 1) / window in
        let acc = Array.copy table.(bits_at e.mag ((nw - 1) * window) window) in
        for w = nw - 2 downto 0 do
          for _ = 1 to window do
            mont_sqr_into ctx t acc acc
          done;
          let d = bits_at e.mag (w * window) window in
          if d <> 0 then mont_mul_into ctx t acc table.(d) acc
        done;
        acc
      end
    in
    (* Leave Montgomery form: REDC of acc itself. *)
    Array.blit acc 0 t 0 k;
    Array.fill t k k 0;
    redc_into ctx t acc;
    normalize 1 acc
end

type monty = Mont.ctx

let monty = Mont.create
let mod_pow_monty = Mont.pow

let mod_pow b e m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_pow: modulus must be positive";
  if e.sign < 0 then invalid_arg "Bignum.mod_pow: negative exponent";
  match Mont.create m with
  | Some ctx -> Mont.pow ctx b e
  | None -> mod_pow_generic b e m

let random g ~bits =
  if bits <= 0 then invalid_arg "Bignum.random: bits <= 0";
  let nbytes = (bits + 7) / 8 in
  let s = Prng.bytes g nbytes in
  let excess = (nbytes * 8) - bits in
  let b = Bytes.of_string s in
  if excess > 0 then
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xFF lsr excess)));
  of_bytes_be (Bytes.unsafe_to_string b)

let random_below g n =
  if n.sign <= 0 then invalid_arg "Bignum.random_below: bound <= 0";
  let bits = numbits n in
  let rec loop () =
    let candidate = random g ~bits in
    if compare candidate n < 0 then candidate else loop ()
  in
  loop ()

(* manetdom: allow toplevel-state escaping-memo — the sieve array is
   local to this initialiser and the resulting prime table is only ever
   indexed, never written, after module init: read-only across
   domains. *)
let small_primes =
  (* Primes below 1000, enough trial division to reject most candidates
     before a Miller-Rabin round. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

let is_probable_prime ?(rounds = 24) g n =
  let n = abs n in
  match to_int_opt n with
  | Some v when v < 2 -> false
  | Some v when v <= small_primes.(Array.length small_primes - 1) ->
      Array.exists (fun p -> p = v) small_primes
  | _ ->
      let divisible_by_small =
        Array.exists
          (fun p ->
            let r = rem n (of_int p) in
            r.sign = 0)
          small_primes
      in
      if divisible_by_small then false
      else begin
        (* Trial division by 2 leaves n odd, so the context exists. *)
        match Mont.create n with
        | None -> false
        | Some ctx ->
            (* n - 1 = d * 2^s with d odd *)
            let n1 = sub n one in
            let s = ref 0 in
            let d = ref n1 in
            while not (testbit !d 0) do
              d := shift_right !d 1;
              incr s
            done;
            let witness a =
              let x = ref (Mont.pow ctx a !d) in
              if equal !x one || equal !x n1 then false
              else begin
                let composite = ref true in
                (try
                   for _ = 1 to !s - 1 do
                     x := mod_ (mul !x !x) n;
                     if equal !x n1 then begin
                       composite := false;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                !composite
              end
            in
            let rec rounds_loop k =
              if k = 0 then true
              else begin
                let a = add two (random_below g (sub n (of_int 4))) in
                if witness a then false else rounds_loop (k - 1)
              end
            in
            rounds_loop rounds
      end

let generate_prime g ~bits =
  if bits < 2 then invalid_arg "Bignum.generate_prime: bits < 2";
  let rec attempt () =
    let candidate = random g ~bits in
    (* Force the top bit (exact width) and the low bit (odd). *)
    let candidate = add candidate (shift_left one (bits - 1)) in
    let candidate =
      if testbit candidate bits then
        (* Carry overflowed the width: retry. *)
        zero
      else if testbit candidate 0 then candidate
      else add candidate one
    in
    if candidate.sign = 0 || numbits candidate <> bits then attempt ()
    else begin
      (* March odd numbers forward until prime, staying within the width. *)
      let rec march c tries =
        if tries > 4096 || numbits c <> bits then attempt ()
        else if is_probable_prime g c then c
        else march (add c two) (tries + 1)
      in
      march candidate 0
    end
  in
  attempt ()
