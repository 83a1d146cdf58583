(* Reflected CRC-32 with polynomial 0xEDB88320 (IEEE 802.3). *)

(* Built eagerly at module initialisation: a lazy table forced by several
   domains at once (parallel shard recovery in a fresh process) can raise
   [CamlinternalLazy.Undefined] in all but one of them. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let bytes ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let string ?crc s ~pos ~len =
  (* SAFETY: the aliased bytes are only ever read — [bytes] performs
     [Bytes.get] within the validated [pos, pos+len) window and never
     writes — so the immutable string is not mutated through the alias. *)
  bytes ?crc (Bytes.unsafe_of_string s) ~pos ~len
