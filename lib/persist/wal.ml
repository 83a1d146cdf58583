module E = Hyperion.Hyperion_error

let format_version = 1
let magic = "HYPWAL\x00\x01"

type op = Put of string * int64 | Add of string | Delete of string

let step state = function
  | Put (_, v) -> Some (Some v)
  | Add _ -> if Option.is_none state then Some None else state
  | Delete _ -> None

(* --- writer --------------------------------------------------------- *)

(* A writer is owned by exactly one [Persist.t] handle; its mutable
   watermarks are part of that handle's lock-protected state (racecheck
   enforces the string-token guard cross-module). *)
type writer = {
  path : string;
  fd : Unix.file_descr;
  io : Io.t;
  mutable written : int; [@guarded_by "Persist.t.lock"]
  mutable synced : int; [@guarded_by "Persist.t.lock"]
  mutable open_ : bool; [@guarded_by "Persist.t.lock"]
}

(* Like snapshot headers: flags bit 0 = preprocess, bits 1-2 = encoder
   scheme id; the fingerprint is encoder-mixed.  With the identity
   encoder both reduce to the historical v1 values, so pre-compression
   logs keep replaying byte-for-byte. *)
let header_bytes ~config ~compress ~gen =
  Frame.make_header ~magic ~version:format_version
    ~flags:
      ((if config.Hyperion.Config.preprocess then 1 else 0)
      lor (Compress.id compress lsl 1))
    ~fingerprint:
      (Compress.mix_fingerprint (Hyperion.Config.fingerprint config) compress)
    ~aux:(Int64.of_int gen)

let create ?(io = Io.none) ?(compress = Compress.Identity) ~config ~gen path =
  match Io.openfile io path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
  | Error _ as e -> e
  | Ok fd -> (
      let setup =
        match Io.write_all io fd (header_bytes ~config ~compress ~gen) ~path with
        | Error _ as e -> e
        | Ok () -> Io.fsync io fd ~path
      in
      match setup with
      | Ok () ->
          Ok
            {
              path;
              fd;
              io;
              written = Frame.header_size;
              synced = Frame.header_size;
              open_ = true;
            }
      | Error _ as e ->
          Io.quiet_close fd;
          e)

let open_append ?(io = Io.none) ~config ~gen path =
  ignore config;
  ignore gen;
  match Io.openfile io path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
  | Error _ as e -> e
  | Ok fd -> (
      match (Unix.fstat fd).Unix.st_size with
      | size -> Ok { path; fd; io; written = size; synced = size; open_ = true }
      | exception e ->
          Io.quiet_close fd;
          Io.error ~path e)

let encode op =
  (* SAFETY: every [tagged] buffer is freshly allocated, fully written, and
     uniquely owned; the conversions below transfer ownership with no
     mutable alias remaining. *)
  let tagged tag key extra =
    let klen = String.length key in
    let b = Bytes.create (1 + klen + extra) in
    Bytes.set_uint8 b 0 tag;
    Bytes.blit_string key 0 b 1 klen;
    b
  in
  match op with
  | Put (key, v) ->
      let b = tagged 1 key 8 in
      Bytes.set_int64_le b (1 + String.length key) v;
      Bytes.unsafe_to_string b
  | Add key -> Bytes.unsafe_to_string (tagged 2 key 0)
  | Delete key -> Bytes.unsafe_to_string (tagged 3 key 0)

(* The op in the [len]-byte payload at [p], its key copied out once. *)
let decode buf ~p ~len =
  if len < 2 then None
  else
    match Bytes.get_uint8 buf p with
    | 1 when len >= 2 + 8 ->
        Some
          (Put (Bytes.sub_string buf (p + 1) (len - 9), Bytes.get_int64_le buf (p + len - 8)))
    | 2 -> Some (Add (Bytes.sub_string buf (p + 1) (len - 1)))
    | 3 -> Some (Delete (Bytes.sub_string buf (p + 1) (len - 1)))
    | _ -> None

let append w op =
  if not w.open_ then Error (E.Io_error (w.path ^ ": WAL writer closed"))
  else
    let b = Frame.frame (encode op) in
    match Io.write_all w.io w.fd b ~path:w.path with
    | Ok () ->
        w.written <- w.written + Bytes.length b;
        Ok (Bytes.length b)
    | Error _ as e -> e
[@@requires_lock "Persist.t.lock"]

let sync w =
  if not w.open_ then Error (E.Io_error (w.path ^ ": WAL writer closed"))
  else
    match Io.fsync w.io w.fd ~path:w.path with
    | Ok () ->
        w.synced <- w.written;
        Ok ()
    | Error _ as e -> e
[@@requires_lock "Persist.t.lock"]

let size w = w.written [@@requires_lock "Persist.t.lock"]
let synced_bytes w = w.synced [@@requires_lock "Persist.t.lock"]

(* Compensation: cut an appended-but-unwanted record back off the tail.
   Legal on an O_WRONLY/O_APPEND descriptor; the durable watermark can
   never exceed [len] here because no sync happens between the append and
   the truncation (both run under the owning handle's lock). *)
let truncate_writer w ~len =
  if not w.open_ then Error (E.Io_error (w.path ^ ": WAL writer closed"))
  else if len < Frame.header_size || len > w.written then
    Error (E.Io_error (w.path ^ ": truncate_writer: offset out of range"))
  else
    match Io.ftruncate w.io w.fd len ~path:w.path with
    | Ok () ->
        w.written <- len;
        if w.synced > len then w.synced <- len;
        Ok ()
    | Error _ as e -> e
[@@requires_lock "Persist.t.lock"]

let close w =
  match sync w with
  | Error _ as e ->
      w.open_ <- false;
      Io.quiet_close w.fd;
      e
  | Ok () ->
      w.open_ <- false;
      Io.quiet_close w.fd;
      Ok ()
[@@requires_lock "Persist.t.lock"]

let abort w =
  if w.open_ then begin
    w.open_ <- false;
    Io.quiet_close w.fd
  end
[@@requires_lock "Persist.t.lock"]

(* --- replay --------------------------------------------------------- *)

type replay = { records : int; valid_bytes : int; truncated : bool }

let torn path what = Error (E.Torn_log (path ^ ": " ^ what))

let truncate_to io path valid =
  match Io.openfile io path [ Unix.O_WRONLY ] 0 with
  | Error _ as e -> e
  | Ok fd -> (
      let res =
        match Io.ftruncate io fd valid ~path with
        | Error _ as e -> e
        | Ok () -> Io.fsync io fd ~path
      in
      Io.quiet_close fd;
      res)

let replay ?(io = Io.none) ?(compress = Compress.Identity) ~config ~gen path ~f =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> (
      match Frame.parse_header ~magic buf with
      | Error Frame.Short -> torn path "file shorter than the header"
      | Error Frame.Bad_magic -> torn path "bad magic"
      | Error Frame.Bad_crc -> torn path "header CRC mismatch"
      | Ok h ->
          if h.Frame.version <> format_version then
            Error
              (E.Version_mismatch
                 { found = h.Frame.version; expected = format_version })
          else if
            h.Frame.fingerprint
            <> Compress.mix_fingerprint (Hyperion.Config.fingerprint config)
                 compress
          then
            torn path
              (Printf.sprintf
                 "config fingerprint mismatch (file 0x%Lx, config 0x%Lx)"
                 h.Frame.fingerprint
                 (Compress.mix_fingerprint
                    (Hyperion.Config.fingerprint config)
                    compress))
          else if Int64.to_int h.Frame.aux <> gen then
            torn path
              (Printf.sprintf "generation mismatch (file %Ld, expected %d)"
                 h.Frame.aux gen)
          else begin
            let total = Bytes.length buf in
            let rec loop pos records =
              if pos = total then Ok { records; valid_bytes = pos; truncated = false }
              else
                let len = Frame.record buf ~pos in
                (* a torn tail, or a CRC-valid but undecodable record at
                   the end of the valid prefix: drop it *)
                let op = if len < 0 then None else decode buf ~p:(pos + 4) ~len in
                match op with
                | None -> (
                    match truncate_to io path pos with
                    | Ok () -> Ok { records; valid_bytes = pos; truncated = true }
                    | Error _ as e -> e)
                | Some op -> (
                    match f op with
                    | Ok () -> loop (pos + len + Frame.frame_overhead) (records + 1)
                    | Error _ as e -> e)
            in
            loop Frame.header_size 0
          end)
