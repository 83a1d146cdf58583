(* hyperion.net wire protocol: qcheck round-trips over every opcode and
   response shape, torn/short frame resilience, oversized-length
   rejection, and pipelined multi-frame buffers split at arbitrary
   chunk boundaries. *)

module F = Hyperion_net.Frame

(* ---- generators ------------------------------------------------------- *)

let key_gen = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 48))
let value_gen = QCheck.Gen.(map Int64.of_int (int_range (-1_000_000) 1_000_000))

let batch_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> F.Bput (k, v)) key_gen value_gen;
        map (fun k -> F.Badd k) key_gen;
        map (fun k -> F.Bdel k) key_gen;
      ])

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> F.Put (k, v)) key_gen value_gen;
        map (fun k -> F.Add k) key_gen;
        map (fun k -> F.Get k) key_gen;
        map (fun k -> F.Mem k) key_gen;
        map (fun k -> F.Delete k) key_gen;
        map
          (fun ops -> F.Batch (Array.of_list ops))
          (list_size (int_range 0 24) batch_op_gen);
        return F.Stats;
        return F.Health;
      ])

let err_code_gen =
  QCheck.Gen.oneofl
    [
      F.E_arena_saturated; F.E_alloc_failed; F.E_container_overflow;
      F.E_restart_budget; F.E_chunk_corrupt; F.E_empty_key; F.E_key_too_long;
      F.E_corrupt_snapshot; F.E_torn_log; F.E_version_mismatch; F.E_io;
      F.E_degraded; F.E_overloaded; F.E_shard_down; F.E_key_too_short;
      F.E_bad_request; F.E_too_large; F.E_internal;
    ]

let health_gen =
  QCheck.Gen.(
    map
      (fun (shard, (alive, degraded, backlog)) ->
        { F.sh_shard = shard; sh_alive = alive; sh_degraded = degraded;
          sh_backlog = backlog })
      (pair (int_range 0 63) (triple bool bool (int_range 0 4096))))

let response_gen =
  QCheck.Gen.(
    oneof
      [
        return F.Ack;
        map (fun v -> F.Value (Some v)) value_gen;
        return (F.Value None);
        map (fun b -> F.Found b) bool;
        map (fun n -> F.Applied n) (int_range 0 100_000);
        map2
          (fun (keys, bytes) (shards, sat) ->
            F.Stats_r
              {
                st_keys = Int64.of_int keys;
                st_resident_bytes = Int64.of_int bytes;
                st_shards = shards;
                st_saturated_arenas = sat;
              })
          (pair (int_range 0 1_000_000) (int_range 0 1_000_000_000))
          (pair (int_range 1 64) (int_range 0 64));
        map
          (fun hs -> F.Health_r (Array.of_list hs))
          (list_size (int_range 0 16) health_gen);
        map2 (fun c m -> F.Err (c, m)) err_code_gen
          (string_size ~gen:printable (int_range 0 64));
      ])

let id_gen = QCheck.Gen.(int_range 0 0x3FFFFFFF)

(* ---- single-frame round trips ---------------------------------------- *)

let decode_one buf =
  let dec = F.Decoder.create () in
  F.Decoder.feed_string dec (Buffer.contents buf);
  match F.Decoder.next dec with
  | F.Frame (id, tag, payload) ->
      (match F.Decoder.next dec with
      | F.Need_more -> ()
      | F.Frame _ -> Alcotest.fail "trailing frame after a single encode"
      | F.Corrupt m -> Alcotest.failf "corrupt after a single encode: %s" m);
      (id, tag, payload)
  | F.Need_more -> Alcotest.fail "decoder wants more after a full encode"
  | F.Corrupt m -> Alcotest.failf "corrupt single frame: %s" m

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode/parse round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair id_gen request_gen))
    (fun (id, req) ->
      let buf = Buffer.create 64 in
      F.encode_request buf ~id req;
      let did, tag, payload = decode_one buf in
      did = id
      &&
      match F.parse_request ~tag payload with
      | Ok req' -> req' = req
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s" m)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode/parse round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair id_gen response_gen))
    (fun (id, resp) ->
      let buf = Buffer.create 64 in
      F.encode_response buf ~id resp;
      let did, tag, payload = decode_one buf in
      did = id
      &&
      match F.parse_response ~tag payload with
      | Ok resp' -> resp' = resp
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s" m)

(* ---- pipelined buffers split at arbitrary boundaries ------------------ *)

let prop_arbitrary_splits =
  QCheck.Test.make
    ~name:"pipelined frames survive arbitrary chunk boundaries" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 12) (pair id_gen request_gen))
           (int_range 1 13)))
    (fun (reqs, chunk) ->
      let buf = Buffer.create 256 in
      List.iter (fun (id, req) -> F.encode_request buf ~id req) reqs;
      let all = Buffer.contents buf in
      let dec = F.Decoder.create () in
      let got = ref [] in
      let pos = ref 0 in
      let drain () =
        let continue = ref true in
        while !continue do
          match F.Decoder.next dec with
          | F.Frame (id, tag, payload) -> (
              match F.parse_request ~tag payload with
              | Ok req -> got := (id, req) :: !got
              | Error m -> Alcotest.failf "parse under splits: %s" m)
          | F.Need_more -> continue := false
          | F.Corrupt m -> Alcotest.failf "corrupt under splits: %s" m
        done
      in
      while !pos < String.length all do
        let len = min chunk (String.length all - !pos) in
        F.Decoder.feed_string dec (String.sub all !pos len);
        drain ();
        pos := !pos + len
      done;
      List.rev !got = reqs)

(* ---- torn / short / oversized frames ---------------------------------- *)

let test_torn_frame () =
  let buf = Buffer.create 64 in
  F.encode_request buf ~id:7 (F.Put ("torn key", 99L));
  let all = Buffer.contents buf in
  let dec = F.Decoder.create () in
  (* every strict prefix must yield Need_more, never Corrupt *)
  for cut = 0 to String.length all - 1 do
    let d = F.Decoder.create () in
    F.Decoder.feed_string d (String.sub all 0 cut);
    match F.Decoder.next d with
    | F.Need_more -> ()
    | F.Frame _ -> Alcotest.failf "frame from a %d-byte prefix" cut
    | F.Corrupt m -> Alcotest.failf "corrupt from a %d-byte prefix: %s" cut m
  done;
  (* and completing the tail yields exactly the frame *)
  F.Decoder.feed_string dec (String.sub all 0 9);
  (match F.Decoder.next dec with
  | F.Need_more -> ()
  | _ -> Alcotest.fail "expected Need_more on the torn prefix");
  F.Decoder.feed_string dec (String.sub all 9 (String.length all - 9));
  match F.Decoder.next dec with
  | F.Frame (id, tag, payload) -> (
      Alcotest.(check int) "id" 7 id;
      match F.parse_request ~tag payload with
      | Ok (F.Put (k, v)) ->
          Alcotest.(check string) "key" "torn key" k;
          Alcotest.(check int64) "value" 99L v
      | Ok _ -> Alcotest.fail "wrong request decoded"
      | Error m -> Alcotest.failf "parse: %s" m)
  | _ -> Alcotest.fail "expected the completed frame"

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

let test_oversized_rejected () =
  let dec = F.Decoder.create () in
  F.Decoder.feed_string dec (le32 (F.max_frame_len + 1));
  (match F.Decoder.next dec with
  | F.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized length prefix must poison the decoder");
  (* poisoned decoders stay poisoned, even across feeds *)
  F.Decoder.feed_string dec "more bytes";
  match F.Decoder.next dec with
  | F.Corrupt _ -> ()
  | _ -> Alcotest.fail "decoder recovered from poison"

let test_short_length_rejected () =
  (* len < 5 cannot hold id + tag *)
  let dec = F.Decoder.create () in
  F.Decoder.feed_string dec (le32 4);
  F.Decoder.feed_string dec "xxxx";
  match F.Decoder.next dec with
  | F.Corrupt _ -> ()
  | _ -> Alcotest.fail "undersized length prefix must poison the decoder"

let test_truncated_payload_parse () =
  (* a syntactically complete frame whose payload is cut short parses to
     Error, not an exception *)
  let buf = Buffer.create 64 in
  F.encode_request buf ~id:1 (F.Put ("some key", 5L));
  let all = Buffer.contents buf in
  let dec = F.Decoder.create () in
  F.Decoder.feed_string dec all;
  match F.Decoder.next dec with
  | F.Frame (_, tag, payload) -> (
      let cut = String.sub payload 0 (String.length payload - 3) in
      match F.parse_request ~tag cut with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated payload parsed")
  | _ -> Alcotest.fail "frame expected"

let test_unknown_tag_parse () =
  (match F.parse_request ~tag:0x63 "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown request tag parsed");
  match F.parse_response ~tag:0x63 "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown response tag parsed"

let test_err_code_ints () =
  (* the wire codes are a stable protocol surface *)
  List.iter
    (fun (c, n) ->
      Alcotest.(check int) "code" n (F.err_code_int c);
      match F.err_code_of_int n with
      | Some c' when c' = c -> ()
      | Some _ | None -> Alcotest.failf "code %d does not round-trip" n)
    [
      (F.E_arena_saturated, 1); (F.E_empty_key, 6); (F.E_degraded, 12);
      (F.E_overloaded, 13); (F.E_shard_down, 14); (F.E_key_too_short, 15);
      (F.E_bad_request, 100);
      (F.E_too_large, 101); (F.E_internal, 102);
    ]

let () =
  Alcotest.run "net-frame"
    [
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_arbitrary_splits;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "torn frame" `Quick test_torn_frame;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
          Alcotest.test_case "short length rejected" `Quick
            test_short_length_rejected;
          Alcotest.test_case "truncated payload" `Quick
            test_truncated_payload_parse;
          Alcotest.test_case "unknown tags" `Quick test_unknown_tag_parse;
          Alcotest.test_case "error codes" `Quick test_err_code_ints;
        ] );
    ]
