type t =
  | Arena_saturated
  | Alloc_failed of string
  | Container_overflow
  | Restart_budget_exceeded of int
  | Chunk_corrupt of string
  | Empty_key
  | Key_too_long of int
  | Corrupt_snapshot of string
  | Torn_log of string
  | Version_mismatch of { found : int; expected : int }
  | Io_error of string
  | Degraded of string
  | Overloaded of string
  | Shard_down of string
  | Key_too_short of int

exception Error of t

let fail e = raise (Error e)

let to_string = function
  | Arena_saturated -> "arena saturated: memory-manager pools exhausted"
  | Alloc_failed site -> Printf.sprintf "allocation failed (%s)" site
  | Container_overflow -> "container exceeds the 19-bit size limit"
  | Restart_budget_exceeded n ->
      Printf.sprintf "operation restart budget (%d) exceeded" n
  | Chunk_corrupt what -> Printf.sprintf "corrupt chunk: %s" what
  | Empty_key -> "empty keys are not supported"
  | Key_too_long n -> Printf.sprintf "key of %d bytes exceeds the 2^20 limit" n
  | Corrupt_snapshot what -> Printf.sprintf "corrupt snapshot: %s" what
  | Torn_log what -> Printf.sprintf "torn write-ahead log: %s" what
  | Version_mismatch { found; expected } ->
      Printf.sprintf "format version mismatch: file has v%d, this build speaks v%d"
        found expected
  | Io_error what -> Printf.sprintf "I/O error: %s" what
  | Degraded why ->
      Printf.sprintf
        "store is degraded (read-only) after a storage failure: %s" why
  | Overloaded what -> Printf.sprintf "shard overloaded: %s" what
  | Shard_down why -> Printf.sprintf "shard worker is down: %s" why
  | Key_too_short n ->
      Printf.sprintf
        "key of %d bytes is shorter than the 4 bytes key pre-processing needs" n

let pp fmt e = Format.pp_print_string fmt (to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Hyperion_error.Error: " ^ to_string e)
    | _ -> None)
