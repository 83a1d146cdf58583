let header_size = 32
let frame_overhead = 8

(* 1 tag byte + max key (2^20) + 8 value bytes, rounded up generously. *)
let max_payload = (1 lsl 20) + 64

let make_header ~magic ~version ~flags ~fingerprint ~aux =
  if String.length magic <> 8 then invalid_arg "Frame.make_header: magic";
  let b = Bytes.create header_size in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_uint16_le b 8 version;
  Bytes.set_uint16_le b 10 flags;
  Bytes.set_int64_le b 12 fingerprint;
  Bytes.set_int64_le b 20 aux;
  Bytes.set_int32_le b 28 (Crc32.bytes b ~pos:0 ~len:28);
  b

type header = { version : int; flags : int; fingerprint : int64; aux : int64 }
type header_error = Short | Bad_magic | Bad_crc

let parse_header ~magic b =
  if Bytes.length b < header_size then Error Short
  else if Bytes.sub_string b 0 8 <> magic then Error Bad_magic
  else if Bytes.get_int32_le b 28 <> Crc32.bytes b ~pos:0 ~len:28 then
    Error Bad_crc
  else
    Ok
      {
        version = Bytes.get_uint16_le b 8;
        flags = Bytes.get_uint16_le b 10;
        fingerprint = Bytes.get_int64_le b 12;
        aux = Bytes.get_int64_le b 20;
      }

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (len + frame_overhead) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.set_int32_le b (4 + len) (Crc32.string payload ~pos:0 ~len);
  b

type record_error = Rec_short | Rec_bad_crc | Rec_bad_len

let rec_short = -1
let rec_bad_len = -2
let rec_bad_crc = -3

let record buf ~pos =
  let total = Bytes.length buf in
  if pos + 4 > total then rec_short
  else
    let len = Int32.to_int (Bytes.get_int32_le buf pos) in
    if len < 0 || len > max_payload then rec_bad_len
    else if pos + 4 + len + 4 > total then rec_short
    else if
      Int32.to_int (Bytes.get_int32_le buf (pos + 4 + len)) land 0xFFFFFFFF
      <> Crc32.bytes_int buf ~pos:(pos + 4) ~len
    then rec_bad_crc
    else len

let record_error code =
  if code = rec_short then Rec_short
  else if code = rec_bad_len then Rec_bad_len
  else if code = rec_bad_crc then Rec_bad_crc
  else invalid_arg "Frame.record_error"
