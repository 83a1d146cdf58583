(* The table-driven CRC-32 against its bitwise definition (reflected,
   polynomial 0xEDB88320, pre- and post-inverted), over random buffers,
   offsets and lengths, and chained through [?crc]. *)

let reference ?(crc = 0l) b ~pos ~len =
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    c := Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)));
    for _ = 1 to 8 do
      c :=
        if Int32.logand !c 1l <> 0l then
          Int32.logxor (Int32.shift_right_logical !c 1) 0xEDB88320l
        else Int32.shift_right_logical !c 1
    done
  done;
  Int32.lognot !c

(* a buffer, a slice [pos, pos + len) of it with len in 0..64, and a cut
   inside the slice for chaining *)
let gen_case =
  QCheck.Gen.(
    let* s = string_size (int_range 0 96) in
    let n = String.length s in
    let* pos = int_range 0 n in
    let* len = int_range 0 (min 64 (n - pos)) in
    let* cut = int_range 0 len in
    return (s, pos, len, cut))

let print (s, pos, len, cut) =
  Printf.sprintf "buffer %S pos %d len %d cut %d" s pos len cut

let q_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"matches the bitwise definition"
    (QCheck.make ~print gen_case) (fun (s, pos, len, _) ->
      let b = Bytes.of_string s in
      Persist.Crc32.bytes b ~pos ~len = reference b ~pos ~len
      && Persist.Crc32.string s ~pos ~len = reference b ~pos ~len)

let q_chains =
  QCheck.Test.make ~count:2000 ~name:"?crc continues a running checksum"
    (QCheck.make ~print gen_case) (fun (s, pos, len, cut) ->
      let b = Bytes.of_string s in
      let head = Persist.Crc32.bytes b ~pos ~len:cut in
      Persist.Crc32.bytes ~crc:head b ~pos:(pos + cut) ~len:(len - cut)
      = reference b ~pos ~len
      && Persist.Crc32.bytes ~crc:head b ~pos:(pos + cut) ~len:(len - cut)
         = reference ~crc:head b ~pos:(pos + cut) ~len:(len - cut))

let test_known_vector () =
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (Persist.Crc32.string "123456789" ~pos:0 ~len:9)

let () =
  Alcotest.run "crc32"
    [
      ( "crc32",
        [
          Alcotest.test_case "check value" `Quick test_known_vector;
          QCheck_alcotest.to_alcotest q_matches_reference;
          QCheck_alcotest.to_alcotest q_chains;
        ] );
    ]
