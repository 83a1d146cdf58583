(* Reflected CRC-32 with polynomial 0xEDB88320 (IEEE 802.3), slicing by 8:
   eight 256-entry tables, flattened into one [int] array ([table k] at
   offset [256 * k]), let the loop fold eight input bytes per step.  Table
   0 is the classic byte-at-a-time table; entry [n] of table [k] is the
   CRC of byte [n] followed by [k] zero bytes.  Plain [int]s keep the
   arithmetic unboxed; only the interface speaks [int32]. *)

(* Built eagerly at module initialisation: a lazy table forced by several
   domains at once (parallel shard recovery in a fresh process) can raise
   [CamlinternalLazy.Undefined] in all but one of them. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let t = table in
  let c = ref (crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Bytes.get_int32_le b !i |> Int32.to_int) land 0xFFFFFFFF in
    let hi = Bytes.get_int32_le b (!i + 4) |> Int32.to_int in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.((hi lsr 24) land 0xff);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := t.((!c lxor Bytes.get_uint8 b j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes_int b ~pos ~len = update 0 b ~pos ~len

let bytes ?(crc = 0l) b ~pos ~len =
  Int32.of_int (update (Int32.to_int crc) b ~pos ~len)

let string ?crc s ~pos ~len =
  (* SAFETY: the aliased bytes are only ever read — [bytes] performs
     [Bytes.get_int32_le] / [Bytes.get_uint8] within the validated
     [pos, pos+len) window and never writes — so the immutable string is
     not mutated through the alias. *)
  bytes ?crc (Bytes.unsafe_of_string s) ~pos ~len
