(* Layout: output byte 0 = input byte 0; input bytes 1..3 form a 24-bit
   stream spread over output bytes 1..4, six bits per byte, shifted into
   the high bits so the two least significant bits of each are zero (the
   paper's choice, preserving delta-encoding efficiency and uniform
   partial-key distribution); input bytes 4.. are copied unchanged. *)

let min_key_len = 4

let encode_sub src ~pos ~len:n =
  if n < min_key_len then invalid_arg "Preprocess.encode: keys must be >= 4 bytes";
  let out = Bytes.create (n + 1) in
  Bytes.set out 0 (Bytes.get src pos);
  let stream =
    (Bytes.get_uint8 src (pos + 1) lsl 16)
    lor (Bytes.get_uint8 src (pos + 2) lsl 8)
    lor Bytes.get_uint8 src (pos + 3)
  in
  for i = 0 to 3 do
    let six = (stream lsr (18 - (6 * i))) land 0x3f in
    Bytes.set_uint8 out (1 + i) (six lsl 2)
  done;
  Bytes.blit src (pos + 4) out 5 (n - 4);
  (* SAFETY: [out] is freshly allocated, fully written, and never mutated
     or aliased after this conversion. *)
  Bytes.unsafe_to_string out

let encode key =
  (* SAFETY: the alias is only read by [encode_sub], never written, so
     the immutable string is not mutated through it. *)
  encode_sub (Bytes.unsafe_of_string key) ~pos:0 ~len:(String.length key)

let decode key =
  let n = String.length key in
  if n < 5 then invalid_arg "Preprocess.decode: encoded keys are >= 5 bytes";
  let stream = ref 0 in
  for i = 1 to 4 do
    let b = Char.code key.[i] in
    if b land 0b11 <> 0 then
      invalid_arg "Preprocess.decode: low bits of bytes 2-5 must be zero";
    stream := (!stream lsl 6) lor (b lsr 2)
  done;
  let out = Bytes.create (n - 1) in
  Bytes.set out 0 key.[0];
  Bytes.set_uint8 out 1 ((!stream lsr 16) land 0xff);
  Bytes.set_uint8 out 2 ((!stream lsr 8) land 0xff);
  Bytes.set_uint8 out 3 (!stream land 0xff);
  Bytes.blit_string key 5 out 4 (n - 5);
  (* SAFETY: [out] is freshly allocated, fully written, and never mutated
     or aliased after this conversion. *)
  Bytes.unsafe_to_string out
