(* Engine-level model tests: every Hyperion operation compared against a
   Map-based reference under several configurations, including tiny
   thresholds that force embedded-container ejection, PC bursts, container
   splits and jump-table maintenance on nearly every operation. *)

module M = Map.Make (String)
module O = Hyperion.Ops

let default = { Hyperion.Config.default with chunks_per_bin = 64 }

let tiny =
  {
    default with
    embedded_eject_parent_limit = 256;
    embedded_max = 64;
    pc_max = 8;
    tnode_jt_threshold = 4;
    js_threshold = 2;
    container_jt_threshold = 2;
    split_a = 512;
    split_b = 256;
    split_min_piece = 64;
  }

let no_jumps =
  {
    default with
    js_threshold = 500_000;
    tnode_jt_threshold = 500_000;
    container_jt_threshold = 500_000;
  }

let no_delta = { default with delta_encoding = false }

(* ---- reference-model driver ---- *)

let check_valid trie ctx =
  match Hyperion.Validate.check trie with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: %d structural violations, first: %s" ctx
        (List.length errs)
        (Format.asprintf "%a" Hyperion.Validate.pp_error (List.hd errs))

let check_against_model trie model ctx =
  check_valid trie ctx;
  M.iter
    (fun k v ->
      match O.find trie k with
      | Some (Some got) when got = v -> ()
      | other ->
          Alcotest.failf "%s: key %S expected %Ld, got %s" ctx k v
            (match other with
            | None -> "absent"
            | Some None -> "valueless"
            | Some (Some g) -> Int64.to_string g))
    model;
  let got = ref [] in
  Hyperion.Range.range trie (fun k v ->
      got := (k, v) :: !got;
      true);
  let want = M.bindings model |> List.map (fun (k, v) -> (k, Some v)) in
  if List.rev !got <> want then
    Alcotest.failf "%s: range yielded %d keys, expected %d (or misordered)" ctx
      (List.length !got) (List.length want)

let run_model ~config ~n ~keygen ~seed ctx =
  let rng = Workload.Mt19937_64.create seed in
  let trie = O.create config in
  let model = ref M.empty in
  for i = 0 to n - 1 do
    let k = keygen rng in
    let op = Workload.Mt19937_64.next_below rng 10 in
    if op < 7 then begin
      let v = Workload.Mt19937_64.next_u64 rng in
      ignore (O.put trie k (Some v));
      model := M.add k v !model
    end
    else begin
      let removed = O.delete trie k in
      if removed <> M.mem k !model then
        Alcotest.failf "%s: delete %S returned %b" ctx k removed;
      model := M.remove k !model
    end;
    if i mod (max 1 (n / 6)) = 0 then check_against_model trie !model ctx
  done;
  check_against_model trie !model ctx

let word alphabet maxlen rng =
  let n = 1 + Workload.Mt19937_64.next_below rng maxlen in
  String.init n (fun _ ->
      Char.chr (97 + Workload.Mt19937_64.next_below rng alphabet))

let intkey bound rng =
  Kvcommon.Key_codec.of_u64
    (Int64.of_int (Workload.Mt19937_64.next_below rng bound))

let model_case name config keygen seed n =
  Alcotest.test_case name `Slow (fun () ->
      run_model ~config ~n ~keygen ~seed name)

(* ---- targeted scenarios ---- *)

let test_paper_words () =
  (* the running example of the paper's Figures 1-7 *)
  let trie = O.create default in
  let words = [ "a"; "and"; "be"; "by"; "that"; "the"; "to" ] in
  List.iteri (fun i w -> ignore (O.put trie w (Some (Int64.of_int i)))) words;
  List.iteri
    (fun i w ->
      Alcotest.(check bool)
        (w ^ " present") true
        (O.find trie w = Some (Some (Int64.of_int i))))
    words;
  Alcotest.(check (option (option int64))) "prefix not a member" None
    (O.find trie "b");
  Alcotest.(check (option (option int64))) "extension absent" None
    (O.find trie "thats")

let test_set_semantics () =
  let trie = O.create default in
  Alcotest.(check bool) "add new" true (O.put trie "member" None);
  Alcotest.(check (option (option int64))) "member without value"
    (Some None) (O.find trie "member");
  Alcotest.(check bool) "add again is not new" false (O.put trie "member" None);
  (* upgrade to valued (type 10 -> 11 transition, paper Section 3.1) *)
  Alcotest.(check bool) "upgrade not new" false (O.put trie "member" (Some 9L));
  Alcotest.(check (option (option int64))) "now valued" (Some (Some 9L))
    (O.find trie "member");
  Alcotest.(check bool) "delete" true (O.delete trie "member");
  Alcotest.(check (option (option int64))) "gone" None (O.find trie "member")

let test_value_overwrite_in_place () =
  let trie = O.create default in
  ignore (O.put trie "key" (Some 1L));
  ignore (O.put trie "key" (Some 2L));
  Alcotest.(check (option (option int64))) "overwritten" (Some (Some 2L))
    (O.find trie "key")

let test_pc_burst () =
  (* two keys sharing a long prefix force the recursive PC transformation *)
  let trie = O.create default in
  let a = "prefixprefixprefixAAA" and b = "prefixprefixprefixBBB" in
  ignore (O.put trie a (Some 1L));
  ignore (O.put trie b (Some 2L));
  Alcotest.(check bool) "a" true (O.find trie a = Some (Some 1L));
  Alcotest.(check bool) "b" true (O.find trie b = Some (Some 2L));
  (* a key that is a prefix of a stored PC suffix *)
  let c = "prefixprefixprefix" in
  ignore (O.put trie c (Some 3L));
  Alcotest.(check bool) "c" true (O.find trie c = Some (Some 3L));
  Alcotest.(check bool) "a still there" true (O.find trie a = Some (Some 1L))

let test_split_occurs () =
  (* tiny split thresholds: a few hundred spread-out keys must split the
     root container into chained extended bins *)
  let config = { tiny with embedded_eject_parent_limit = 128 } in
  let trie = O.create config in
  let keys = ref [] in
  for a = 0 to 255 do
    let k = Printf.sprintf "%c%c-suffix" (Char.chr a) (Char.chr (255 - a)) in
    keys := k :: !keys;
    ignore (O.put trie k (Some (Int64.of_int a)))
  done;
  let st = Hyperion.Stats.collect trie in
  Alcotest.(check bool) "split containers exist" true
    (st.Hyperion.Stats.split_containers > 0);
  List.iter
    (fun k ->
      if O.find trie k = None then Alcotest.failf "lost %S after splits" k)
    !keys

let test_ejection_occurs () =
  let trie = O.create tiny in
  let rng = Workload.Mt19937_64.create 77L in
  for _ = 1 to 2000 do
    ignore (O.put trie (word 4 12 rng) (Some 1L))
  done;
  let st = Hyperion.Stats.collect trie in
  Alcotest.(check bool) "containers multiplied by ejection" true
    (st.Hyperion.Stats.containers > 4)

let test_jumps_built () =
  let trie = O.create default in
  (* one T-node with 200 children: jump successor + T-node jump table *)
  for i = 0 to 199 do
    ignore (O.put trie (Printf.sprintf "a%c" (Char.chr i)) (Some (Int64.of_int i)))
  done;
  (* many T-nodes: container jump table (three-byte keys cannot collide
     with the two-byte keys above) *)
  for i = 0 to 199 do
    ignore (O.put trie (Printf.sprintf "%cxx" (Char.chr i)) (Some (Int64.of_int i)))
  done;
  let st = Hyperion.Stats.collect trie in
  Alcotest.(check bool) "jump successors" true (st.Hyperion.Stats.jump_successors > 0);
  Alcotest.(check bool) "t-node jump tables" true
    (st.Hyperion.Stats.tnode_jump_tables > 0);
  Alcotest.(check bool) "container jump-table entries" true
    (st.Hyperion.Stats.container_jt_entries > 0);
  for i = 0 to 199 do
    Alcotest.(check bool) "lookup through jumps" true
      (O.find trie (Printf.sprintf "a%c" (Char.chr i))
      = Some (Some (Int64.of_int i)))
  done

let test_jumps_equal_no_jumps () =
  (* scanning with jump tables must visit exactly the same keys as without *)
  let rng = Workload.Mt19937_64.create 3L in
  let with_j = O.create default and without_j = O.create no_jumps in
  for _ = 1 to 3000 do
    let k = word 6 10 rng in
    let v = Workload.Mt19937_64.next_u64 rng in
    ignore (O.put with_j k (Some v));
    ignore (O.put without_j k (Some v))
  done;
  let collect trie =
    let acc = ref [] in
    Hyperion.Range.range trie (fun k v ->
        acc := (k, v) :: !acc;
        true);
    List.rev !acc
  in
  Alcotest.(check bool) "identical contents" true (collect with_j = collect without_j)

let test_long_keys () =
  let trie = O.create default in
  let k1 = String.init 5000 (fun i -> Char.chr (65 + (i mod 26))) in
  let k2 = String.sub k1 0 4999 ^ "!" in
  ignore (O.put trie k1 (Some 1L));
  ignore (O.put trie k2 (Some 2L));
  Alcotest.(check bool) "k1" true (O.find trie k1 = Some (Some 1L));
  Alcotest.(check bool) "k2" true (O.find trie k2 = Some (Some 2L));
  Alcotest.(check bool) "delete k1" true (O.delete trie k1);
  Alcotest.(check bool) "k2 survives" true (O.find trie k2 = Some (Some 2L))

(* The first key of an empty trie used to be encoded by per-byte-pair
   recursion, superlinear in key length; at the 2^20-byte cap it must take
   the same iterative long-key path a put into a non-empty trie takes. *)
let test_first_key_at_cap () =
  let trie = O.create default in
  let key = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let t0 = Unix.gettimeofday () in
  ignore (O.put trie key (Some 9L));
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 1.0 then Alcotest.failf "first 2^20-byte key took %.2f s" dt;
  Alcotest.(check bool) "found" true (O.find trie key = Some (Some 9L));
  Alcotest.(check bool) "a prefix is not a key" true
    (O.find trie (String.sub key 0 1000) = None)

let test_delete_to_empty () =
  let trie = O.create tiny in
  let rng = Workload.Mt19937_64.create 9L in
  let keys = List.init 500 (fun _ -> word 4 10 rng) in
  let uniq = List.sort_uniq compare keys in
  List.iter (fun k -> ignore (O.put trie k (Some 1L))) keys;
  List.iter (fun k -> Alcotest.(check bool) ("delete " ^ k) true (O.delete trie k)) uniq;
  Alcotest.(check bool) "root freed" true (Hyperion.Hp.is_null trie.Hyperion.Types.root);
  (* the allocator must be completely clean again *)
  let profile = Hyperion.Memman.superbin_profile trie.Hyperion.Types.mm in
  let live =
    Array.fold_left (fun a s -> a + s.Hyperion.Memman.allocated_chunks) 0 profile
  in
  Alcotest.(check int) "no leaked chunks" 0 live

let test_delta_density_sequential () =
  (* the paper: "The sequential nature allows all Hyperion nodes to delta
     encode the partial keys" — dense sequential keys must delta-encode
     nearly every sibling *)
  let trie = O.create default in
  for i = 0 to 4999 do
    ignore (O.put trie (Kvcommon.Key_codec.of_u64 (Int64.of_int i)) (Some 1L))
  done;
  let st = Hyperion.Stats.collect trie in
  let records = st.Hyperion.Stats.t_nodes + st.Hyperion.Stats.s_nodes in
  let ratio = float_of_int st.Hyperion.Stats.delta_encoded /. float_of_int records in
  Alcotest.(check bool)
    (Printf.sprintf "delta ratio %.2f > 0.8 on dense keys" ratio)
    true (ratio > 0.8)

let test_set_value_mixing_vs_reference () =
  (* members without values and valued keys interleaved must agree with a
     two-map reference at every step *)
  let trie = O.create tiny in
  let valued = Hashtbl.create 64 and members = Hashtbl.create 64 in
  let rng = Workload.Mt19937_64.create 15L in
  for _ = 1 to 4000 do
    let k = word 4 8 rng in
    match Workload.Mt19937_64.next_below rng 4 with
    | 0 ->
        ignore (O.put trie k None);
        if not (Hashtbl.mem valued k) then Hashtbl.replace members k ()
    | 1 | 2 ->
        let v = Workload.Mt19937_64.next_u64 rng in
        ignore (O.put trie k (Some v));
        Hashtbl.replace valued k v;
        Hashtbl.remove members k
    | _ ->
        ignore (O.delete trie k);
        Hashtbl.remove valued k;
        Hashtbl.remove members k
  done;
  Hashtbl.iter
    (fun k v ->
      if O.find trie k <> Some (Some v) then Alcotest.failf "valued %S wrong" k)
    valued;
  Hashtbl.iter
    (fun k () ->
      if O.find trie k <> Some None then Alcotest.failf "member %S wrong" k)
    members;
  check_valid trie "set/value mixing"

let test_stats_consistency () =
  (* after any mix of valued puts, Stats terminal counts equal the live
     key population *)
  let trie = O.create tiny in
  let rng = Workload.Mt19937_64.create 13L in
  let live = Hashtbl.create 64 in
  for _ = 1 to 3000 do
    let k = word 4 10 rng in
    if Workload.Mt19937_64.next_below rng 4 = 0 then begin
      if Hashtbl.mem live k then Hashtbl.remove live k;
      ignore (O.delete trie k)
    end
    else begin
      Hashtbl.replace live k ();
      ignore (O.put trie k (Some 1L))
    end
  done;
  let st = Hyperion.Stats.collect trie in
  Alcotest.(check int) "stats.values = live keys" (Hashtbl.length live)
    st.Hyperion.Stats.values;
  Alcotest.(check int) "no valueless members" 0
    st.Hyperion.Stats.members_without_value

let test_resplit () =
  (* splitting an already-split container adds slots to the same chained
     extended bin; keys must survive repeated splits *)
  let config = { tiny with split_a = 256; split_min_piece = 32 } in
  let trie = O.create config in
  let keys = ref [] in
  (* two-byte keys spread over the whole T range with fat payload chains *)
  for a = 0 to 255 do
    for b = 0 to 3 do
      let k = Printf.sprintf "%c%c tail-%d" (Char.chr a) (Char.chr (b * 64)) b in
      keys := k :: !keys;
      ignore (O.put trie k (Some (Int64.of_int ((a * 4) + b))))
    done
  done;
  List.iter
    (fun k -> if O.find trie k = None then Alcotest.failf "lost %S" k)
    !keys;
  let st = Hyperion.Stats.collect trie in
  Alcotest.(check bool) "multiple split pieces" true
    (st.Hyperion.Stats.split_containers >= 1)

let test_empty_key_rejected () =
  let trie = O.create default in
  Alcotest.check_raises "empty key"
    (Invalid_argument "Hyperion: empty keys are not supported") (fun () ->
      ignore (O.put trie "" (Some 1L)))

let test_binary_keys () =
  (* keys containing 0x00 and 0xff bytes must work: the engine is 8-bit
     clean (zero bytes are valid partial keys, not terminators) *)
  let trie = O.create default in
  let keys = [ "\x00"; "\x00\x00"; "\x00\xff"; "\xff\x00\xff"; "\xff" ] in
  List.iteri (fun i k -> ignore (O.put trie k (Some (Int64.of_int i)))) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) "binary key" true
        (O.find trie k = Some (Some (Int64.of_int i))))
    keys;
  let got = ref [] in
  Hyperion.Range.range trie (fun k _ ->
      got := k :: !got;
      true);
  Alcotest.(check (list string)) "binary order"
    [ "\x00"; "\x00\x00"; "\x00\xff"; "\xff"; "\xff\x00\xff" ]
    (List.rev !got)

let () =
  Alcotest.run "engine"
    [
      ( "scenarios",
        [
          Alcotest.test_case "paper words" `Quick test_paper_words;
          Alcotest.test_case "set semantics" `Quick test_set_semantics;
          Alcotest.test_case "overwrite in place" `Quick test_value_overwrite_in_place;
          Alcotest.test_case "pc burst" `Quick test_pc_burst;
          Alcotest.test_case "container split" `Quick test_split_occurs;
          Alcotest.test_case "embedded ejection" `Quick test_ejection_occurs;
          Alcotest.test_case "jump structures built" `Quick test_jumps_built;
          Alcotest.test_case "jumps vs no jumps" `Quick test_jumps_equal_no_jumps;
          Alcotest.test_case "long keys" `Quick test_long_keys;
          Alcotest.test_case "2^20-byte first key" `Quick test_first_key_at_cap;
          Alcotest.test_case "delete to empty frees all" `Quick test_delete_to_empty;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "delta density on dense keys" `Quick
            test_delta_density_sequential;
          Alcotest.test_case "set/value mixing" `Quick
            test_set_value_mixing_vs_reference;
          Alcotest.test_case "re-split" `Quick test_resplit;
          Alcotest.test_case "empty key rejected" `Quick test_empty_key_rejected;
          Alcotest.test_case "binary keys" `Quick test_binary_keys;
        ] );
      ( "model",
        [
          model_case "default/words" default (word 4 12) 1L 4000;
          model_case "default/long-words" default (word 3 200) 2L 1200;
          model_case "default/ints" default (intkey 5000) 3L 4000;
          model_case "tiny/words" tiny (word 4 12) 4L 4000;
          model_case "tiny/long-words" tiny (word 3 300) 5L 1200;
          model_case "tiny/ints" tiny (intkey 5000) 6L 4000;
          model_case "no-jumps/words" no_jumps (word 4 12) 7L 3000;
          model_case "no-delta/words" no_delta (word 4 12) 8L 3000;
          model_case "no-delta/ints" no_delta (intkey 5000) 9L 3000;
          model_case "soak/tiny-mixed" tiny
            (fun rng ->
              if Workload.Mt19937_64.next_below rng 2 = 0 then word 5 24 rng
              else intkey 20000 rng)
            10L 12000;
        ] );
    ]
