(* Fast decimal rendering for finite doubles, replacing the
   printf-%g-and-verify dance on the trace hot path (a single
   [Printf.sprintf "%.16g"] costs ~600ns; this path lands around a
   quarter of that).

   Method: scale |f| by a cached power of ten held in double-double
   precision (~105 significant bits), round to a 17-digit integer
   mantissa, and lay the digits out %g-style. A 16-digit rounding is
   tried first so friendly values keep their short spelling ("0.1", not
   "0.10000000000000001"). Every candidate is verified by parsing it
   back before it is returned, so the arithmetic here only has to be
   right in the overwhelmingly common case — any residual boundary
   error (rounding ties, double-double drift) turns into a [None] and
   the caller's printf fallback, never into a wrong literal. *)

(* -- Double-double helpers ----------------------------------------------- *)

(* Exact error of the rounded product [p = a *. b], via Veltkamp splits
   and Dekker's product — written out flat so every intermediate stays
   an unboxed local float. Safe for the magnitudes this module admits
   (the 2^27 scaling cannot overflow). *)
let two_prod_err a b p =
  let ca = 134217729. *. a in
  let ah = ca -. (ca -. a) in
  let al = a -. ah in
  let cb = 134217729. *. b in
  let bh = cb -. (cb -. b) in
  let bl = b -. bh in
  ((ah *. bh) -. p) +. (ah *. bl) +. (al *. bh) +. (al *. bl)

let dd_mul (ah, al) (bh, bl) =
  let p = ah *. bh in
  let e = two_prod_err ah bh p +. ((ah *. bl) +. (al *. bh)) in
  let hi = p +. e in
  (hi, e -. (hi -. p))

let dd_div (ah, al) (bh, bl) =
  let q1 = ah /. bh in
  let p = bh *. q1 in
  let e = two_prod_err bh q1 p +. (bl *. q1) in
  let r = (ah -. p) +. (al -. e) in
  let q2 = r /. bh in
  let hi = q1 +. q2 in
  (hi, q2 -. (hi -. q1))

(* -- Cached powers of ten, 10^k for k in [-max_pow, max_pow] ------------- *)

(* The fast path only serves |f| in (1e-30, 1e30) — generously past any
   value the simulator produces (timestamps in seconds, effort charges,
   delays) — so the scale factor 10^(16 - floor(log10 f)) stays within
   [-14, 46]. Everything outside falls back to printf. *)
let max_pow = 50

let pow_hi = Array.make (2 * max_pow + 1) 0.
let pow_lo = Array.make (2 * max_pow + 1) 0.

let () =
  (* 10^k is exact in a double up to k = 22 (5^22 < 2^53). *)
  let exact = Array.make 23 1. in
  for k = 1 to 22 do
    exact.(k) <- exact.(k - 1) *. 10.
  done;
  for k = 0 to 22 do
    pow_hi.(max_pow + k) <- exact.(k);
    pow_lo.(max_pow + k) <- 0.
  done;
  for k = 23 to max_pow do
    let hi, lo =
      dd_mul (pow_hi.(max_pow + k - 22), pow_lo.(max_pow + k - 22)) (exact.(22), 0.)
    in
    pow_hi.(max_pow + k) <- hi;
    pow_lo.(max_pow + k) <- lo
  done;
  for k = 1 to max_pow do
    let hi, lo = dd_div (1., 0.) (pow_hi.(max_pow + k), pow_lo.(max_pow + k)) in
    pow_hi.(max_pow - k) <- hi;
    pow_lo.(max_pow - k) <- lo
  done

(* -- Digit generation ----------------------------------------------------- *)

let ten_p16 = 10_000_000_000_000_000
let ten_p17 = 100_000_000_000_000_000

(* [scaled_17 a] is the 17-digit decimal mantissa [m] and exponent [q]
   with [a ~ m * 10^(q - 16)], [10^16 <= m < 10^17], for positive
   finite [a] within the fast-path domain. *)
let rec scaled_attempt a est retries =
  let k = 16 - est in
  if k < -max_pow || k > max_pow || retries > 2 then None
  else begin
    let ph = pow_hi.(max_pow + k) and pl = pow_lo.(max_pow + k) in
    let p = a *. ph in
    (* p ~ 1e16..1e17, so its ulp can reach 16: [round p] alone loses
       the low decimal digits. Recover them from the exact product
       error plus the low half of the power. *)
    let e = two_prod_err a ph p +. (a *. pl) in
    let r = Float.round p in
    let frac = (p -. r) +. e in
    let m = int_of_float r + int_of_float (Float.round frac) in
    if m >= ten_p17 then scaled_attempt a (est + 1) (retries + 1)
    else if m < ten_p16 then scaled_attempt a (est - 1) (retries + 1)
    else Some (m, est)
  end

let scaled_17 a =
  (* floor(log10 a) from the binary exponent: 78913 / 2^18 ~ log10 2.
     The estimate can be off by one; the range check retries. *)
  let e2 = (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) land 0x7ff) - 1023 in
  scaled_attempt a ((e2 * 78913) asr 18) 0

(* Workspaces reused across calls: a 17-digit mantissa never needs
   [string_of_int]'s fresh string, and a per-call [Buffer.create] was a
   measurable slice of the per-literal allocation ([Buffer.contents]
   copies out a fresh string, so reuse is safe). One pair per domain:
   parallel sweeps render literals on several domains at once, and a
   shared pair interleaves their digits. *)
type scratch = { digits : Bytes.t; buf : Buffer.t }

let scratch =
  Domain.DLS.new_key (fun () -> { digits = Bytes.create 17; buf = Buffer.create 32 })

(* Fills [digits] least-significant-digit-first from the right; returns
   the start index. *)
let rec fill_digits digits x pos =
  Bytes.unsafe_set digits pos (Char.unsafe_chr (Char.code '0' + (x mod 10)));
  if x >= 10 then fill_digits digits (x / 10) (pos - 1) else pos

let rec strip_zeros m p = if m mod 10 = 0 then strip_zeros (m / 10) (p + 1) else (m, p)

(* [render ~neg m p] lays out [sign * m * 10^p] %g-style: plain decimal
   when the leading digit's exponent is in [-4, 17), otherwise
   [d.ddde±XX]. Trailing zeros of [m] are stripped first. *)
let render ~neg m p =
  let { digits; buf = b } = Domain.DLS.get scratch in
  let m, p = strip_zeros m p in
  let start = fill_digits digits m 16 in
  let l = 17 - start in
  let q = p + l - 1 in
  Buffer.clear b;
  if neg then Buffer.add_char b '-';
  if q < -4 || q >= 17 then begin
    Buffer.add_char b (Bytes.unsafe_get digits start);
    if l > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_subbytes b digits (start + 1) (l - 1)
    end;
    Buffer.add_char b 'e';
    Buffer.add_char b (if q < 0 then '-' else '+');
    let a = abs q in
    if a < 10 then Buffer.add_char b '0';
    Buffer.add_string b (string_of_int a)
  end
  else if q >= l - 1 then begin
    Buffer.add_subbytes b digits start l;
    for _ = 1 to q - (l - 1) do
      Buffer.add_char b '0'
    done
  end
  else if q >= 0 then begin
    Buffer.add_subbytes b digits start (q + 1);
    Buffer.add_char b '.';
    Buffer.add_subbytes b digits (start + q + 1) (l - q - 1)
  end
  else begin
    Buffer.add_string b "0.";
    for _ = 1 to -q - 1 do
      Buffer.add_char b '0'
    done;
    Buffer.add_subbytes b digits start l
  end;
  Buffer.contents b

(* [certify m p a] decides whether the literal [m * 10^p] parses back to
   exactly the positive double [a], by recomputing the value in
   double-double and measuring its distance from [a] against the
   neighbouring representable doubles. Distances clearly inside half an
   ulp certify the round-trip; clearly outside refute it; the thin
   uncertainty band in between (rounding ties, accumulated dd error,
   well under 2^-40 ulp wide) is left to a real string parse. *)
type verdict = Roundtrips | Fails | Unsure

let certify m p a =
  (* [m] < 10^17 exceeds 2^53, so hold it exactly as a dd pair. The
     product with the power is [dd_mul] written out flat: the tuple
     return would box two floats per call on the hot path. *)
  let mh = float_of_int m in
  let ml = float_of_int (m - int_of_float mh) in
  let bh = pow_hi.(max_pow + p) and bl = pow_lo.(max_pow + p) in
  let ph = mh *. bh in
  let e = two_prod_err mh bh ph +. ((mh *. bl) +. (ml *. bh)) in
  let vh = ph +. e in
  let vl = e -. (vh -. ph) in
  (* [vh -. a] is exact (Sterbenz: the values are within a hair of each
     other whenever the answer is in doubt). *)
  let d = (vh -. a) +. vl in
  let gap = if d >= 0. then Float.succ a -. a else a -. Float.pred a in
  let margin = 1e-5 *. gap in
  let half = 0.5 *. gap in
  let ad = Float.abs d in
  if ad < half -. margin then Roundtrips
  else if ad > half +. margin then Fails
  else Unsure

(* Top level rather than a local of [to_literal]: a closure over
   [neg]/[f]/[a] would allocate per call. *)
let attempt neg f a m p =
  match certify m p a with
  | Roundtrips -> Some (render ~neg m p)
  | Fails -> None
  | Unsure ->
    let s = render ~neg m p in
    if Float.of_string s = f then Some s else None

let to_literal f =
  let a = Float.abs f in
  if not (a > 1e-30 && a < 1e30) then None
  else begin
    match scaled_17 a with
    | None -> None
    | Some (m17, q) ->
      let neg = f < 0. in
      (* Shorter 16-digit rounding first, so values that survive it
         ("0.1", "86400.5") keep the spelling %.16g would give them. *)
      let m16 = (m17 / 10) + (if m17 mod 10 >= 5 then 1 else 0) in
      (match attempt neg f a m16 (q - 15) with
      | Some s -> Some s
      | None -> attempt neg f a m17 (q - 16))
  end
