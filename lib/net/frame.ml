(* Binary frame codec for hyperion.net — see frame.mli and DESIGN.md §13.

   Layout: [len:u32le | id:u32le | tag:u8 | payload], [len] counting
   everything after itself.  Requests carry an opcode tag; responses carry
   a kind tag (< 16 success, >= 16 an error code shifted by 16).  The
   module is pure: encoders append to buffers, the decoder consumes
   arbitrarily-split chunks. *)

let max_frame_len = 1 lsl 24
let max_key_len = 1 lsl 20
let max_batch_ops = 1 lsl 16

type batch_op =
  | Bput of string * int64
  | Badd of string
  | Bdel of string

type request =
  | Put of string * int64
  | Add of string
  | Get of string
  | Mem of string
  | Delete of string
  | Batch of batch_op array
  | Stats
  | Health

let opcode = function
  | Put _ -> 1
  | Add _ -> 2
  | Get _ -> 3
  | Mem _ -> 4
  | Delete _ -> 5
  | Batch _ -> 6
  | Stats -> 7
  | Health -> 8

type err_code =
  | E_arena_saturated
  | E_alloc_failed
  | E_container_overflow
  | E_restart_budget
  | E_chunk_corrupt
  | E_empty_key
  | E_key_too_long
  | E_corrupt_snapshot
  | E_torn_log
  | E_version_mismatch
  | E_io
  | E_degraded
  | E_overloaded
  | E_shard_down
  | E_key_too_short
  | E_bad_request
  | E_too_large
  | E_internal

let err_code_int = function
  | E_arena_saturated -> 1
  | E_alloc_failed -> 2
  | E_container_overflow -> 3
  | E_restart_budget -> 4
  | E_chunk_corrupt -> 5
  | E_empty_key -> 6
  | E_key_too_long -> 7
  | E_corrupt_snapshot -> 8
  | E_torn_log -> 9
  | E_version_mismatch -> 10
  | E_io -> 11
  | E_degraded -> 12
  | E_overloaded -> 13
  | E_shard_down -> 14
  | E_key_too_short -> 15
  | E_bad_request -> 100
  | E_too_large -> 101
  | E_internal -> 102

let err_code_of_int = function
  | 1 -> Some E_arena_saturated
  | 2 -> Some E_alloc_failed
  | 3 -> Some E_container_overflow
  | 4 -> Some E_restart_budget
  | 5 -> Some E_chunk_corrupt
  | 6 -> Some E_empty_key
  | 7 -> Some E_key_too_long
  | 8 -> Some E_corrupt_snapshot
  | 9 -> Some E_torn_log
  | 10 -> Some E_version_mismatch
  | 11 -> Some E_io
  | 12 -> Some E_degraded
  | 13 -> Some E_overloaded
  | 14 -> Some E_shard_down
  | 15 -> Some E_key_too_short
  | 100 -> Some E_bad_request
  | 101 -> Some E_too_large
  | 102 -> Some E_internal
  | _ -> None

let err_of_hyperion (e : Hyperion.Hyperion_error.t) =
  match e with
  | Arena_saturated -> E_arena_saturated
  | Alloc_failed _ -> E_alloc_failed
  | Container_overflow -> E_container_overflow
  | Restart_budget_exceeded _ -> E_restart_budget
  | Chunk_corrupt _ -> E_chunk_corrupt
  | Empty_key -> E_empty_key
  | Key_too_long _ -> E_key_too_long
  | Corrupt_snapshot _ -> E_corrupt_snapshot
  | Torn_log _ -> E_torn_log
  | Version_mismatch _ -> E_version_mismatch
  | Io_error _ -> E_io
  | Degraded _ -> E_degraded
  | Overloaded _ -> E_overloaded
  | Shard_down _ -> E_shard_down
  | Key_too_short _ -> E_key_too_short

type shard_health = {
  sh_shard : int;
  sh_alive : bool;
  sh_degraded : bool;
  sh_backlog : int;
}

type stats = {
  st_keys : int64;
  st_resident_bytes : int64;
  st_shards : int;
  st_saturated_arenas : int;
}

type response =
  | Ack
  | Value of int64 option
  | Found of bool
  | Applied of int
  | Stats_r of stats
  | Health_r of shard_health array
  | Err of err_code * string

(* ---- low-level writers ----------------------------------------------- *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b v
let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_lstring b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* Frame shell: payload is built in a scratch buffer so [len] is known. *)
let add_frame b ~id ~tag payload =
  add_u32 b (5 + String.length payload);
  add_u32 b (id land 0xffffffff);
  add_u8 b tag;
  Buffer.add_string b payload

let with_payload f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

(* ---- encoding -------------------------------------------------------- *)

let encode_request b ~id req =
  let payload =
    with_payload (fun p ->
        match req with
        | Put (k, v) ->
            add_lstring p k;
            add_i64 p v
        | Add k | Get k | Mem k | Delete k -> add_lstring p k
        | Batch ops ->
            add_u32 p (Array.length ops);
            Array.iter
              (fun op ->
                match op with
                | Bput (k, v) ->
                    add_u8 p 1;
                    add_lstring p k;
                    add_i64 p v
                | Badd k ->
                    add_u8 p 2;
                    add_lstring p k
                | Bdel k ->
                    add_u8 p 3;
                    add_lstring p k)
              ops
        | Stats | Health -> ())
  in
  add_frame b ~id ~tag:(opcode req) payload

let response_tag = function
  | Ack -> 0
  | Value _ -> 1
  | Found _ -> 2
  | Applied _ -> 3
  | Stats_r _ -> 4
  | Health_r _ -> 5
  | Err (c, _) -> 16 + err_code_int c

let encode_response b ~id resp =
  let payload =
    with_payload (fun p ->
        match resp with
        | Ack -> ()
        | Value None -> add_u8 p 0
        | Value (Some v) ->
            add_u8 p 1;
            add_i64 p v
        | Found x -> add_u8 p (if x then 1 else 0)
        | Applied n -> add_u32 p n
        | Stats_r s ->
            add_i64 p s.st_keys;
            add_i64 p s.st_resident_bytes;
            add_u32 p s.st_shards;
            add_u32 p s.st_saturated_arenas
        | Health_r hs ->
            add_u32 p (Array.length hs);
            Array.iter
              (fun h ->
                add_u32 p h.sh_shard;
                add_u8 p (if h.sh_alive then 1 else 0);
                add_u8 p (if h.sh_degraded then 1 else 0);
                add_u32 p h.sh_backlog)
              hs
        | Err (_, msg) -> Buffer.add_string p msg)
  in
  add_frame b ~id ~tag:(response_tag resp) payload

(* ---- streaming decoder ----------------------------------------------- *)

type decoded =
  | Frame of int * int * string
  | Need_more
  | Corrupt of string

module Decoder = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* bytes buffered from [start] *)
    mutable poison : string option;
  }

  let create () =
    { buf = Bytes.create 4096; start = 0; len = 0; poison = None }

  let buffered t = t.len

  let ensure_room t extra =
    let need = t.len + extra in
    if t.start + need > Bytes.length t.buf then begin
      if need <= Bytes.length t.buf then begin
        (* compact in place *)
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let cap = ref (Bytes.length t.buf * 2) in
        while !cap < need do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf t.start nb 0 t.len;
        t.buf <- nb;
        t.start <- 0
      end
    end

  let feed t src off len =
    if len < 0 || off < 0 || off + len > Bytes.length src then
      invalid_arg "Frame.Decoder.feed";
    ensure_room t len;
    Bytes.blit src off t.buf (t.start + t.len) len;
    t.len <- t.len + len

  let feed_string t s = feed t (Bytes.of_string s) 0 (String.length s)

  let u32_at t off =
    Int32.to_int (Bytes.get_int32_le t.buf (t.start + off)) land 0xffffffff

  let next t =
    match t.poison with
    | Some msg -> Corrupt msg
    | None ->
        if t.len < 4 then Need_more
        else begin
          let flen = u32_at t 0 in
          if flen < 5 then begin
            let msg = Printf.sprintf "frame length %d below minimum 5" flen in
            t.poison <- Some msg;
            Corrupt msg
          end
          else if flen > max_frame_len then begin
            let msg =
              Printf.sprintf "frame length %d exceeds limit %d" flen
                max_frame_len
            in
            t.poison <- Some msg;
            Corrupt msg
          end
          else if t.len < 4 + flen then Need_more
          else begin
            let id = u32_at t 4 in
            let tag = Char.code (Bytes.get t.buf (t.start + 8)) in
            let payload = Bytes.sub_string t.buf (t.start + 9) (flen - 5) in
            t.start <- t.start + 4 + flen;
            t.len <- t.len - (4 + flen);
            if t.len = 0 then t.start <- 0;
            Frame (id, tag, payload)
          end
        end
end

(* ---- payload parsing ------------------------------------------------- *)

exception Short

type cursor = { s : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.s then raise Short

let r_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

let r_i64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let r_key c =
  let klen = r_u32 c in
  if klen > max_key_len then
    failwith (Printf.sprintf "key length %d exceeds limit %d" klen max_key_len);
  need c klen;
  let k = String.sub c.s c.pos klen in
  c.pos <- c.pos + klen;
  k

let finish c v =
  if c.pos <> String.length c.s then Error "trailing bytes in payload"
  else Ok v

let parse_request ~tag payload =
  let c = { s = payload; pos = 0 } in
  match
    match tag with
    | 1 ->
        let k = r_key c in
        let v = r_i64 c in
        finish c (Put (k, v))
    | 2 -> finish c (Add (r_key c))
    | 3 -> finish c (Get (r_key c))
    | 4 -> finish c (Mem (r_key c))
    | 5 -> finish c (Delete (r_key c))
    | 6 ->
        let n = r_u32 c in
        if n > max_batch_ops then
          failwith
            (Printf.sprintf "batch of %d ops exceeds limit %d" n max_batch_ops)
        else begin
          (* explicit loop: the cursor must advance in index order, which
             Array.init does not guarantee *)
          let ops = Array.make n (Badd "") in
          for i = 0 to n - 1 do
            ops.(i) <-
              (match r_u8 c with
              | 1 ->
                  let k = r_key c in
                  let v = r_i64 c in
                  Bput (k, v)
              | 2 -> Badd (r_key c)
              | 3 -> Bdel (r_key c)
              | op -> failwith (Printf.sprintf "unknown batch op %d" op))
          done;
          finish c (Batch ops)
        end
    | 7 -> finish c Stats
    | 8 -> finish c Health
    | _ -> Error (Printf.sprintf "unknown opcode %d" tag)
  with
  | r -> r
  | exception Short -> Error "truncated payload"
  | exception Failure msg -> Error msg

let parse_response ~tag payload =
  let c = { s = payload; pos = 0 } in
  match
    match tag with
    | 0 -> finish c Ack
    | 1 -> (
        match r_u8 c with
        | 0 -> finish c (Value None)
        | 1 -> finish c (Value (Some (r_i64 c)))
        | m -> Error (Printf.sprintf "bad value marker %d" m))
    | 2 -> (
        match r_u8 c with
        | 0 -> finish c (Found false)
        | 1 -> finish c (Found true)
        | m -> Error (Printf.sprintf "bad bool marker %d" m))
    | 3 -> finish c (Applied (r_u32 c))
    | 4 ->
        let keys = r_i64 c in
        let bytes = r_i64 c in
        let shards = r_u32 c in
        let saturated = r_u32 c in
        finish c
          (Stats_r
             {
               st_keys = keys;
               st_resident_bytes = bytes;
               st_shards = shards;
               st_saturated_arenas = saturated;
             })
    | 5 ->
        let n = r_u32 c in
        if n > 4096 then failwith "implausible shard count"
        else begin
          let hs =
            Array.make n
              { sh_shard = 0; sh_alive = false; sh_degraded = false;
                sh_backlog = 0 }
          in
          for i = 0 to n - 1 do
            let shard = r_u32 c in
            let alive = r_u8 c = 1 in
            let degraded = r_u8 c = 1 in
            let backlog = r_u32 c in
            hs.(i) <-
              {
                sh_shard = shard;
                sh_alive = alive;
                sh_degraded = degraded;
                sh_backlog = backlog;
              }
          done;
          finish c (Health_r hs)
        end
    | t when t >= 16 -> (
        match err_code_of_int (t - 16) with
        | Some code -> Ok (Err (code, payload))
        | None -> Error (Printf.sprintf "unknown error tag %d" t))
    | t -> Error (Printf.sprintf "unknown response tag %d" t)
  with
  | r -> r
  | exception Short -> Error "truncated payload"
  | exception Failure msg -> Error msg
