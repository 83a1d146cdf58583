(* CRC-32 table initialisation under concurrency.  This executable must
   stay on its own: its first CRC computation happens on 8 domains at
   once, the way [Hyperion_shard.open_durable]'s parallel recovery does in
   a fresh process, and every one of them must get the IEEE check value
   for "123456789" (0xCBF43926). *)

let check_value = 0xCBF43926l

let test_parallel_first_use () =
  let go = Atomic.make false in
  let doms =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match Persist.Crc32.string "123456789" ~pos:0 ~len:9 with
            | crc -> Ok crc
            | exception exn -> Error (Printexc.to_string exn)))
  in
  Atomic.set go true;
  Array.iteri
    (fun i d ->
      match Domain.join d with
      | Ok crc ->
          Alcotest.(check int32) (Printf.sprintf "domain %d crc" i) check_value crc
      | Error msg -> Alcotest.failf "domain %d raised %s" i msg)
    doms

let () =
  Alcotest.run "crc32-race"
    [
      ( "init",
        [ Alcotest.test_case "8 domains compute the first CRC" `Quick
            test_parallel_first_use ] );
    ]
