module E = Hyperion.Hyperion_error

let format_version = 2
let magic = "HYPSNAP\x01"

type header = {
  version : int;
  preprocess : bool;
  encoder : int;
  fingerprint : int64;
  count : int;
}

let corrupt path what = Error (E.Corrupt_snapshot (path ^ ": " ^ what))

(* Header flags: bit 0 = preprocess, bits 1-2 = key-encoder scheme id.
   v1 files predate the encoder field; their flags only ever held the
   preprocess bit, so decoding them with this layout reads encoder 0
   (identity) — exactly what they were written with. *)
let flags_of ~preprocess ~encoder = (if preprocess then 1 else 0) lor (encoder lsl 1)

let parse_header path buf =
  match Frame.parse_header ~magic buf with
  | Error Frame.Short -> corrupt path "file shorter than the header"
  | Error Frame.Bad_magic -> corrupt path "bad magic"
  | Error Frame.Bad_crc -> corrupt path "header CRC mismatch"
  | Ok h ->
      if h.Frame.version <> format_version && h.Frame.version <> 1 then
        Error (E.Version_mismatch { found = h.Frame.version; expected = format_version })
      else
        Ok
          {
            version = h.Frame.version;
            preprocess = h.Frame.flags land 1 <> 0;
            encoder = (h.Frame.flags lsr 1) land 3;
            fingerprint = h.Frame.fingerprint;
            count = Int64.to_int h.Frame.aux;
          }

let read_header ?(io = Io.none) path =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> parse_header path buf

(* The encoder persisted in a v2 file: the framed record right after the
   header — empty payload for identity, the 258-byte dictionary blob for
   the dict scheme.  v1 files have no such record and are identity. *)
let parse_encoder path h buf =
  if h.version = 1 then
    if h.encoder <> 0 then corrupt path "v1 snapshot with nonzero encoder bits"
    else Ok (Compress.Identity, Frame.header_size)
  else
    let len = Frame.record buf ~pos:Frame.header_size in
    if len < 0 then corrupt path "missing or torn dictionary record"
    else
      let blob = Bytes.sub_string buf (Frame.header_size + 4) len
      and next = Frame.header_size + len + Frame.frame_overhead in
      match h.encoder with
      | 0 ->
          if blob = "" then Ok (Compress.Identity, next)
          else corrupt path "identity snapshot carries a dictionary"
      | 1 -> (
          match Compress.dict_of_string blob with
          | Ok d -> Ok (Compress.Dict d, next)
          | Error why -> corrupt path ("bad dictionary: " ^ why))
      | n -> Error (E.Version_mismatch { found = n; expected = 1 })

let record_payload key value =
  (* SAFETY: both buffers below are freshly allocated, fully written, and
     never mutated or aliased after the conversion. *)
  let klen = String.length key in
  match value with
  | None ->
      let b = Bytes.create (1 + klen) in
      Bytes.set_uint8 b 0 0;
      Bytes.blit_string key 0 b 1 klen;
      Bytes.unsafe_to_string b
  | Some v ->
      let b = Bytes.create (1 + klen + 8) in
      Bytes.set_uint8 b 0 1;
      Bytes.blit_string key 0 b 1 klen;
      Bytes.set_int64_le b (1 + klen) v;
      Bytes.unsafe_to_string b

let save ?(io = Io.none) ?(compress = Compress.Identity) store path =
  let tmp = path ^ ".tmp" in
  let store_cfg = Hyperion.Store.config store in
  if store_cfg.Hyperion.Config.compress <> Compress.id compress then
    invalid_arg
      (Printf.sprintf
         "Snapshot.save: store config selects encoder %d but %s was passed"
         store_cfg.Hyperion.Config.compress (Compress.name compress));
  let ( let* ) = Result.bind in
  let result =
    match Io.Out.create io tmp with
    | Error _ as e -> e
    | Ok w -> (
        let written = ref 0 in
        let body =
          let header =
            Frame.make_header ~magic ~version:format_version
              ~flags:
                (flags_of ~preprocess:store_cfg.Hyperion.Config.preprocess
                   ~encoder:(Compress.id compress))
              ~fingerprint:
                (Compress.mix_fingerprint
                   (Hyperion.Config.fingerprint store_cfg)
                   compress)
              ~aux:(Int64.of_int (Hyperion.Store.length store))
          in
          let* () = Io.Out.write w header in
          written := Bytes.length header;
          let dict_rec =
            Frame.frame
              (match compress with
              | Compress.Identity -> ""
              | Compress.Dict d -> Compress.dict_to_string d)
          in
          let* () = Io.Out.write w dict_rec in
          written := !written + Bytes.length dict_rec;
          (* [iter] has no early exit: after the first failure the
             remaining callbacks are no-ops *)
          let err = ref None in
          Hyperion.Store.iter store (fun key value ->
              if !err = None then begin
                let rec_bytes = Frame.frame (record_payload key value) in
                match Io.Out.write w rec_bytes with
                | Ok () -> written := !written + Bytes.length rec_bytes
                | Error e -> err := Some e
              end);
          match !err with
          | Some e -> Error e
          | None ->
              let* () = Io.Out.sync w in
              Io.Out.close w
        in
        match body with
        | Error e ->
            Io.Out.abort w;
            Error e
        | Ok () ->
            let* () = Io.rename io tmp path in
            let* () = Io.fsync_dir io (Filename.dirname path) in
            Ok !written)
  in
  match result with
  | Ok _ as ok -> ok
  | Error _ as e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      e

let probe ?(io = Io.none) path =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> (
      match parse_header path buf with
      | Error _ as e -> e
      | Ok h -> (
          match parse_encoder path h buf with
          | Error _ as e -> e
          | Ok (enc, _) -> Ok (h, enc)))

(* Every record of the file, CRC-checked and decoded where it lies in
   [buf]: each key is copied out once, already in its stored form
   ({!Hyperion.Store.stored_key_sub}), and must sort strictly after the
   one before it, the order [save] writes them in — the trie is built
   bottom-up from that order.  The header's count comes from the file, so
   it is bounded by what the remaining bytes can hold before it sizes
   anything: a framed record takes at least 10 bytes (length, tag, one
   key byte, CRC). *)
let read_records path config h buf ~pos =
  let total = Bytes.length buf in
  if h.count < 0 || h.count > (total - pos) / 10 then
    corrupt path
      (Printf.sprintf "header claims %d records in %d bytes" h.count
         (total - pos))
  else begin
    let keys = Array.make h.count "" and values = Array.make h.count None in
    let rec loop pos seen =
      if pos = total then
        if seen = h.count then Ok (keys, values)
        else
          corrupt path
            (Printf.sprintf "header promises %d records, file has %d" h.count
               seen)
      else if seen = h.count then corrupt path "trailing bytes"
      else
        let len = Frame.record buf ~pos in
        if len < 0 then
          corrupt path
            (match Frame.record_error len with
            | Frame.Rec_short -> "truncated record"
            | Frame.Rec_bad_len -> "absurd record length"
            | Frame.Rec_bad_crc -> Printf.sprintf "record #%d CRC mismatch" seen)
        else
          (* payload: tag, key, then the 8-byte value when the tag is 1 *)
          let tag = if len < 2 then -1 else Bytes.get_uint8 buf (pos + 4) in
          let klen =
            if tag = 0 then len - 1
            else if tag = 1 && len >= 2 + 8 then len - 9
            else -1
          in
          if klen < 0 then corrupt path "malformed record payload"
          else
            match
              Hyperion.Store.stored_key_sub config buf ~pos:(pos + 5) ~len:klen
            with
            | exception Invalid_argument why ->
                corrupt path (Printf.sprintf "record #%d: %s" seen why)
            | k ->
                if seen > 0 && String.compare keys.(seen - 1) k >= 0 then
                  corrupt path
                    (Printf.sprintf "record #%d %s" seen
                       (if String.equal keys.(seen - 1) k then "repeats a key"
                        else "is out of order"))
                else begin
                  keys.(seen) <- k;
                  if tag = 1 then
                    values.(seen) <- Some (Bytes.get_int64_le buf (pos + 5 + klen));
                  loop (pos + len + Frame.frame_overhead) (seen + 1)
                end
    in
    loop pos 0
  end

let load_sorted ?(io = Io.none) ?expect ~config path =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> (
      match parse_header path buf with
      | Error _ as e -> e
      | Ok h -> (
          match parse_encoder path h buf with
          | Error _ as e -> e
          | Ok (enc, records_pos) ->
              if config.Hyperion.Config.compress <> Compress.id enc then
                (* the config demands a different encoder scheme: refusing
                   here is what keeps a dict-encoded store from being
                   silently served through an identity front door *)
                Error
                  (E.Version_mismatch
                     {
                       found = Compress.tag enc;
                       expected = config.Hyperion.Config.compress;
                     })
              else if
                match expect with
                | None -> false
                | Some e -> not (Compress.equal e enc)
              then
                (* same scheme, different dictionary bytes *)
                Error
                  (E.Version_mismatch
                     {
                       found = Compress.tag enc;
                       expected = Compress.tag (Option.get expect);
                     })
              else if
                h.fingerprint
                <> Compress.mix_fingerprint
                     (Hyperion.Config.fingerprint config)
                     enc
              then
                corrupt path
                  (Printf.sprintf
                     "config fingerprint mismatch (file 0x%Lx, config 0x%Lx)"
                     h.fingerprint
                     (Compress.mix_fingerprint
                        (Hyperion.Config.fingerprint config)
                        enc))
              else
                match read_records path config h buf ~pos:records_pos with
                | Error _ as e -> e
                | Ok (keys, values) -> Ok (keys, values, enc)))

let load ?io ?expect ~config path =
  match load_sorted ?io ?expect ~config path with
  | Error _ as e -> e
  | Ok (keys, values, enc) -> (
      match Hyperion.Store.of_sorted ~config keys values with
      | Ok store -> Ok (store, enc)
      | Error _ as e -> e)
