(* Bottom-up construction (Store.of_sorted / Bulk): a store built from a
   sorted run must be indistinguishable from one built by puts — same
   iteration, same answers to hits and misses, structurally valid and
   heap-clean — and must stay so under further puts and deletes.  Also
   the snapshot loader's typed rejections of files that are well framed
   but cannot be built from: out-of-order or repeated keys, and header
   record counts no file could hold. *)

module H = Hyperion
module S = H.Store
module E = H.Hyperion_error
module HC = Analyze.Heapcheck

let configs =
  [
    ("default", H.Config.default);
    ("strings", H.Config.strings);
    ("arenas=4", { H.Config.default with arenas = 4 });
    ("preprocess", { H.Config.default with preprocess = true });
    ("split_a=256", { H.Config.default with split_a = 256 });
  ]

let pc_max = H.Config.default.pc_max

(* Pre-processing is defined on keys of at least 4 bytes only, and adds a
   byte, so under it a key at the cap no longer fits. *)
let usable (cfg : H.Config.t) k =
  ((not cfg.preprocess) || String.length k >= 4)
  && H.Ops.key_error (S.stored_key cfg k) = None

let put_built cfg bindings =
  let s = S.create ~config:cfg () in
  List.iter
    (fun (k, v) ->
      match v with Some v -> S.put s k v | None -> S.add s k)
    bindings;
  s

let of_sorted cfg bindings =
  let stored =
    List.sort_uniq
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (k, v) -> (S.stored_key cfg k, v)) bindings)
  in
  match
    S.of_sorted ~config:cfg
      (Array.of_list (List.map fst stored))
      (Array.of_list (List.map snd stored))
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "of_sorted: %s" (E.to_string e)

let dump s =
  let acc = ref [] in
  S.iter s (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* Keys that are not stored but sit right next to stored ones: proper
   prefixes, one-byte extensions and last-byte neighbours. *)
let near_misses cfg keys =
  let stored = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace stored k ()) keys;
  List.concat_map
    (fun k ->
      let n = String.length k in
      let bump =
        String.mapi
          (fun i c -> if i = n - 1 then Char.chr ((Char.code c + 1) land 255) else c)
          k
      in
      [ String.sub k 0 (max 1 (n / 2)); k ^ "\000"; bump ])
    keys
  |> List.filter (fun k -> usable cfg k && not (Hashtbl.mem stored k))

(* [built] against the put-built [reference]: the whole observable state
   and both structural audits. *)
let agree name cfg ~built ~reference keys =
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s: %s" name m) fmt in
  if dump built <> dump reference then fail "iteration differs";
  if S.length built <> S.length reference then
    fail "length %d vs %d" (S.length built) (S.length reference);
  List.iter
    (fun k ->
      if S.get built k <> S.get reference k || S.mem built k <> S.mem reference k
      then fail "lookup of a %d-byte key differs" (String.length k))
    (keys @ near_misses cfg keys);
  (match H.Validate.check_store built with
  | [] -> ()
  | e :: _ -> fail "validate: %s" (Format.asprintf "%a" H.Validate.pp_error e));
  let r = HC.audit_store built in
  if not (HC.ok r) then
    fail "heapcheck: %s" (Option.value (HC.first_problem r) ~default:"?");
  true

(* ---- key sets -------------------------------------------------------- *)

let gen_bindings ~cap_key =
  let open QCheck.Gen in
  let alpha = map Char.chr (int_range 97 100) in
  let str n = string_size ~gen:alpha (return n) in
  let value = frequency [ (3, map (fun v -> Some (Int64.of_int v)) nat); (1, return None) ] in
  let short = string_size ~gen:alpha (int_range 1 14) in
  let chain =
    (* a key and a run of its own extensions *)
    let* base = string_size ~gen:alpha (int_range 1 4) in
    let* steps = list_size (int_range 1 5) (string_size ~gen:alpha (int_range 1 3)) in
    return
      (List.rev
         (snd
            (List.fold_left
               (fun (k, acc) s -> (k ^ s, (k ^ s) :: acc))
               (base, [ base ]) steps)))
  in
  let pc_edge =
    (* the suffix below the first T/S pair is exactly pc_max or one more *)
    let* head = str 2 in
    let* extra = int_range 0 1 in
    let* tail = str (pc_max + extra) in
    return [ head ^ tail ]
  in
  let long =
    let* tails = list_size (int_range 1 6) (string_size ~gen:alpha (int_range 0 300)) in
    return (List.map (fun t -> String.make 520 'q' ^ t) tails)
  in
  let family =
    frequency
      [ (6, map (fun k -> [ k ]) short); (2, chain); (2, pc_edge); (1, long) ]
  in
  let* groups = list_size (int_range 0 (if cap_key then 10 else 60)) family in
  let keys = List.concat groups in
  (* put last: a long first key into an empty trie is a slow put-path case *)
  let keys = if cap_key then keys @ [ "zz"; String.make (1 lsl 20) 'z' ] else keys in
  let* values = list_repeat (List.length keys) value in
  return (List.combine keys values)

type op = Put of string * int64 | Add of string | Del of string

let gen_ops keys =
  let open QCheck.Gen in
  let fresh = string_size ~gen:(map Char.chr (int_range 97 101)) (int_range 1 10) in
  let key =
    if keys = [] then fresh else frequency [ (2, oneofl keys); (1, fresh) ]
  in
  list_size (int_range 0 200)
    (frequency
       [
         (3, map2 (fun k v -> Put (k, Int64.of_int v)) key nat);
         (1, map (fun k -> Add k) key);
         (3, map (fun k -> Del k) key);
       ])

let apply cfg s = function
  | Put (k, v) -> if usable cfg k then S.put s k v
  | Add k -> if usable cfg k then S.add s k
  | Del k -> if usable cfg k then ignore (S.delete s k)

let gen_case ~cap_key =
  QCheck.Gen.(
    let* b = gen_bindings ~cap_key in
    let* ops =
      gen_ops (List.filter (fun k -> String.length k < 1 lsl 20) (List.map fst b))
    in
    return (b, ops))

let prop (bindings, ops) =
  List.for_all
    (fun (name, cfg) ->
      (* one binding per key: a repeated [add] would not replace a value *)
      let bindings =
        List.rev
          (List.fold_left
             (fun acc (k, v) ->
               if usable cfg k && not (List.mem_assoc k acc) then (k, v) :: acc
               else acc)
             [] bindings)
      in
      let reference = put_built cfg bindings and built = of_sorted cfg bindings in
      let keys = List.map fst bindings in
      agree name cfg ~built ~reference keys
      && begin
           List.iter (fun op -> apply cfg reference op; apply cfg built op) ops;
           let touched =
             List.map (function Put (k, _) | Add k | Del k -> k) ops
             |> List.filter (usable cfg)
           in
           agree (name ^ " after mutations") cfg ~built ~reference
             (List.sort_uniq compare (keys @ touched))
         end)
    configs

let print_case (b, ops) =
  Printf.sprintf "%d bindings (longest %d bytes), %d ops" (List.length b)
    (List.fold_left (fun m (k, _) -> max m (String.length k)) 0 b)
    (List.length ops)

let q_matches =
  QCheck.Test.make ~count:15 ~name:"built store matches put-built store"
    (QCheck.make ~print:print_case (gen_case ~cap_key:false))
    prop

(* The cap-size key is a chain of 2^19 containers, and the validators
   and range walks recurse once per container: every minor collection
   rescans that deep stack, so fewer, larger ones save most of the run
   time. *)
let with_big_minor_heap f x =
  let saved = Gc.get () in
  Gc.set { saved with minor_heap_size = 8 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set saved) (fun () -> f x)

let q_cap_key =
  QCheck.Test.make ~count:1 ~name:"with a key at the 2^20-byte cap"
    (QCheck.make ~print:print_case (gen_case ~cap_key:true))
    (with_big_minor_heap prop)

(* Enough keys to need jump successors, T-node and container jump tables,
   CEB slots and (three keys per S-node) ejected embedded children under
   the stock configs. *)
let test_dense () =
  let bindings =
    List.init 20_000 (fun i ->
        ( Printf.sprintf "%c%c/%d" (Char.chr (i mod 251))
            (Char.chr (i / 3 * 7 mod 256)) i,
          if i mod 5 = 0 then None else Some (Int64.of_int i) ))
  in
  List.iter
    (fun (name, cfg) ->
      let bindings = List.filter (fun (k, _) -> usable cfg k) bindings in
      let reference = put_built cfg bindings and built = of_sorted cfg bindings in
      ignore (agree name cfg ~built ~reference (List.map fst bindings)))
    configs;
  let st = S.stats (of_sorted H.Config.default bindings) in
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "built store has no %s" what)
    [
      ("CEB", st.H.Stats.split_containers);
      ("jump successor", st.H.Stats.jump_successors);
      ("T-node jump table", st.H.Stats.tnode_jump_tables);
      ("container jump table", st.H.Stats.container_jt_entries);
    ]

let test_rejects_bad_input () =
  let cfg = H.Config.default in
  Alcotest.check_raises "unsorted" (Invalid_argument "Store.of_sorted: keys not strictly ascending")
    (fun () -> ignore (S.of_sorted ~config:cfg [| "b"; "a" |] [| None; None |]));
  (match S.of_sorted ~config:cfg [| "" |] [| None |] with
  | Error E.Empty_key -> ()
  | _ -> Alcotest.fail "empty key must be Empty_key");
  match S.of_sorted ~config:cfg [||] [||] with
  | Ok s -> Alcotest.(check int) "empty store" 0 (S.length s)
  | Error e -> Alcotest.fail (E.to_string e)

(* ---- hand-built snapshots ------------------------------------------- *)

let cfg = H.Config.default

let snapshot_file ~count records =
  let buf = Buffer.create 256 in
  Buffer.add_bytes buf
    (Persist.Frame.make_header ~magic:Persist.Snapshot.magic
       ~version:Persist.Snapshot.format_version ~flags:0
       ~fingerprint:(H.Config.fingerprint cfg) ~aux:count);
  Buffer.add_bytes buf (Persist.Frame.frame "");
  List.iter
    (fun (k, v) ->
      let p = Bytes.create (1 + String.length k + 8) in
      Bytes.set_uint8 p 0 1;
      Bytes.blit_string k 0 p 1 (String.length k);
      Bytes.set_int64_le p (1 + String.length k) v;
      Buffer.add_bytes buf (Persist.Frame.frame (Bytes.to_string p)))
    records;
  let path = Filename.temp_file "hyperion_bulk" ".hyp" in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  path

let expect_corrupt what ~count records =
  let path = snapshot_file ~count records in
  (match Persist.Snapshot.load ~config:cfg path with
  | Error (E.Corrupt_snapshot _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (E.to_string e)
  | Ok _ -> Alcotest.failf "%s: loaded" what);
  Sys.remove path

let test_snapshot_order () =
  let path = snapshot_file ~count:2L [ ("alpha", 1L); ("beta", 2L) ] in
  (match Persist.Snapshot.load ~config:cfg path with
  | Ok (s, _) -> Alcotest.(check (option int64)) "well-ordered loads" (Some 2L) (S.get s "beta")
  | Error e -> Alcotest.fail (E.to_string e));
  Sys.remove path;
  expect_corrupt "out of order" ~count:2L [ ("beta", 2L); ("alpha", 1L) ];
  expect_corrupt "repeated key" ~count:2L [ ("alpha", 1L); ("alpha", 2L) ]

let test_snapshot_count_bound () =
  expect_corrupt "count -1" ~count:(-1L) [ ("alpha", 1L) ];
  expect_corrupt "count 2^40" ~count:(Int64.shift_left 1L 40) [ ("alpha", 1L) ]

(* A snapshot of a put-built store loads into a store that matches it. *)
let test_snapshot_roundtrip () =
  List.iter
    (fun (name, cfg) ->
      let bindings =
        List.init 3000 (fun i ->
            (Printf.sprintf "k%04d/%s" (i * 37 mod 3000) (String.make (i mod 9) 'x'),
             if i mod 4 = 0 then None else Some (Int64.of_int i)))
      in
      let reference = put_built cfg bindings in
      let path = Filename.temp_file "hyperion_bulk" ".hyp" in
      (match Persist.save_snapshot reference path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (E.to_string e));
      (match Persist.Snapshot.load ~config:cfg path with
      | Ok (built, _) ->
          ignore (agree name cfg ~built ~reference (List.map fst bindings))
      | Error e -> Alcotest.failf "%s: %s" name (E.to_string e));
      Sys.remove path)
    configs


(* ---- golden layout ---------------------------------------------------- *)

(* What the builder lays out for three fixed key sets under four configs,
   recorded from the string-building builder this one replaced: resident
   bytes, the structural counts, a digest of the iteration and a digest
   of every allocated chunk's bytes (so HP values, and with them the
   allocation order, are pinned too). *)

let golden_ngrams =
  lazy
    (Array.to_list
       (Array.mapi
          (fun i (k, v) -> (k, if i mod 7 = 0 then None else Some v))
          (Workload.Ngram.generate ~n:20_000 ())))

let golden_shared =
  lazy
    (let prefix = String.concat "/" (List.init 12 (fun i -> Printf.sprintf "shared-prefix-%02d" i)) in
     List.init 20_000 (fun i ->
         ( Printf.sprintf "%s%s%c%c/%d" prefix
             (if i mod 3 = 0 then "/a/" else "/b/")
             (Char.chr (i mod 251)) (Char.chr (i / 3 * 7 mod 256)) i,
           if i mod 5 = 0 then None else Some (Int64.of_int i) )))

let golden_long =
  lazy
    (List.init 300 (fun i ->
         ( String.make (513 + (i mod 3)) (Char.chr (97 + (i mod 4)))
           ^ String.init (i * 13 mod 400) (fun j -> Char.chr (97 + ((i + j) mod 26))),
           if i mod 4 = 0 then None else Some (Int64.of_int (i * 1000)) )))

let golden_configs =
  [
    ("default", H.Config.default);
    ("strings", H.Config.strings);
    ("preprocess", { H.Config.default with preprocess = true });
    ("split_a=256", { H.Config.default with split_a = 256 });
    ("split_a=256,min_piece=64", { H.Config.default with split_a = 256; split_min_piece = 64 });
    (* budgets at their floors: one-byte path compression, 9-byte embedded
       containers, ejection from 64-byte regions, jump fields everywhere
       and no delta encoding *)
    ( "tiny",
      {
        H.Config.default with
        embedded_max = 9;
        pc_max = 1;
        embedded_eject_parent_limit = 64;
        js_threshold = 1;
        tnode_jt_threshold = 2;
        container_jt_threshold = 1;
        delta_encoding = false;
        chunks_per_bin = 64;
      } );
    ( "eject",
      { H.Config.default with embedded_max = 64; pc_max = 4; embedded_eject_parent_limit = 64 } );
  ]

let iter_digest s =
  let b = Buffer.create (1 lsl 16) in
  S.iter s (fun k v ->
      Buffer.add_string b k;
      Buffer.add_char b '\000';
      match v with
      | None -> Buffer.add_char b '-'
      | Some v -> Buffer.add_string b (Int64.to_string v));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every allocated chunk's bytes in allocator order, and each trie's root
   HP. *)
let heap_digest s =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun (trie : H.Types.trie) ->
      let mm = trie.H.Types.mm in
      Buffer.add_string b (string_of_int trie.H.Types.root);
      H.Memman.audit_iter_chunks mm (fun c ->
          let hp =
            H.Hp.make ~superbin:c.H.Memman.a_superbin ~metabin:c.a_metabin
              ~bin:c.a_bin ~chunk:c.a_chunk
          in
          let add (buf, off, len) = Buffer.add_subbytes b buf off len in
          match c.a_kind with
          | H.Memman.A_small when c.a_used ->
              let buf, off = H.Memman.resolve mm hp in
              add (buf, off, c.a_cap)
          | H.Memman.A_plain ->
              let buf, off = H.Memman.resolve mm hp in
              add (buf, off, c.a_cap)
          | H.Memman.A_chain_head ->
              for slot = 0 to 7 do
                Option.iter add (H.Memman.ceb_slot mm hp ~slot)
              done
          | _ -> ()))
    (S.internal_tries s);
  Digest.to_hex (Digest.string (Buffer.contents b))

let layout s =
  let st = S.stats s in
  ( S.memory_usage s,
    [
      st.H.Stats.containers;
      st.split_containers;
      st.embedded_containers;
      st.pc_nodes;
      st.pc_suffix_bytes;
      st.t_nodes;
      st.s_nodes;
      st.delta_encoded;
      st.values;
      st.members_without_value;
      st.jump_successors;
      st.tnode_jump_tables;
      st.container_jt_entries;
    ],
    iter_digest s,
    heap_digest s )

let golden =
  [
    ("ngrams", "default", 265139552, [ 823; 0; 9619; 19214; 310534; 20689; 30314; 14500; 17142; 2858; 2168; 54; 5110 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "cbac392b498db387d0f3d632c294c4a8");
    ("ngrams", "strings", 263706384, [ 736; 0; 9706; 19214; 310534; 20689; 30314; 14500; 17142; 2858; 2168; 54; 5110 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "0585780cbb05981b29e73c5e74124297");
    ("ngrams", "preprocess", 259781472, [ 922; 0; 9995; 19189; 310800; 20872; 30629; 12437; 17142; 2858; 1997; 54; 3941 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "7fe87dfd755a6120bfc51dea5ec0bf49");
    ("ngrams", "split_a=256", 265139552, [ 823; 0; 9619; 19214; 310534; 20689; 30314; 14500; 17142; 2858; 2168; 54; 5110 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "cbac392b498db387d0f3d632c294c4a8");
    ("ngrams", "split_a=256,min_piece=64", 243849576, [ 917; 93; 9619; 19214; 310534; 20689; 30314; 14500; 17142; 2858; 2168; 54; 4991 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "b001b32bcdf4dac75b1491a259539990");
    ("ngrams", "tiny", 8339216, [ 158159; 0; 2656; 9788; 9788; 171062; 180687; 0; 17142; 2858; 20562; 4585; 76020 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "5445de9fac4e57fcec42c46a6eab7eaa");
    ("ngrams", "eject", 65284488, [ 22267; 0; 110671; 19214; 65542; 143185; 152810; 14500; 17142; 2858; 3744; 54; 5306 ], "9bbce56d0b015c9f1a3ebfd8a89cd8a4", "d6adc55d09969b31c3d02c134f4167f0");
    ("shared", "default", 2118520, [ 19; 2; 100; 20000; 108890; 606; 20104; 14705; 16000; 4000; 502; 502; 546 ], "00144c01871662adf3293046f602980e", "c253efd6f738b2ec8d94704491669784");
    ("shared", "strings", 2118520, [ 19; 2; 100; 20000; 108890; 606; 20104; 14705; 16000; 4000; 502; 502; 546 ], "00144c01871662adf3293046f602980e", "c253efd6f738b2ec8d94704491669784");
    ("shared", "preprocess", 19023600, [ 507; 0; 100; 20000; 88890; 20105; 20606; 14719; 16000; 4000; 2; 2; 19327 ], "00144c01871662adf3293046f602980e", "cb929623dc2f433870491bc047bf0930");
    ("shared", "split_a=256", 2118520, [ 19; 2; 100; 20000; 108890; 606; 20104; 14705; 16000; 4000; 502; 502; 546 ], "00144c01871662adf3293046f602980e", "c253efd6f738b2ec8d94704491669784");
    ("shared", "split_a=256,min_piece=64", 2118520, [ 19; 2; 100; 20000; 108890; 606; 20104; 14705; 16000; 4000; 502; 502; 546 ], "00144c01871662adf3293046f602980e", "c253efd6f738b2ec8d94704491669784");
    ("shared", "tiny", 1678792, [ 46035; 2; 3980; 9090; 9090; 50506; 70004; 0; 16000; 4000; 606; 502; 1190 ], "00144c01871662adf3293046f602980e", "25417bce186d70a91fbadfa65d1685a1");
    ("shared", "eject", 2081952, [ 19022; 2; 93; 20000; 70890; 19606; 39104; 14709; 16000; 4000; 502; 502; 469 ], "00144c01871662adf3293046f602980e", "cc40500ea8d50ef3981444c857695a92");
    ("long", "default", 28804888, [ 262; 0; 14867; 155; 6134; 15184; 15284; 155; 225; 75; 8; 0; 56 ], "c875b6da949d48ba0aa92c8ab59c7509", "e6fdde49d90787e161d72bc72b6837d3");
    ("long", "strings", 28804888, [ 262; 0; 14867; 155; 6134; 15184; 15284; 155; 225; 75; 8; 0; 56 ], "c875b6da949d48ba0aa92c8ab59c7509", "e6fdde49d90787e161d72bc72b6837d3");
    ("long", "preprocess", 32736280, [ 262; 0; 14851; 156; 6122; 15216; 15268; 155; 225; 75; 4; 0; 112 ], "c875b6da949d48ba0aa92c8ab59c7509", "f0a9f75eee3105569f87fc7bcd224736");
    ("long", "split_a=256", 28804888, [ 262; 0; 14867; 155; 6134; 15184; 15284; 155; 225; 75; 8; 0; 56 ], "c875b6da949d48ba0aa92c8ab59c7509", "e6fdde49d90787e161d72bc72b6837d3");
    ("long", "split_a=256,min_piece=64", 28804888, [ 262; 0; 14867; 155; 6134; 15184; 15284; 155; 225; 75; 8; 0; 56 ], "c875b6da949d48ba0aa92c8ab59c7509", "e6fdde49d90787e161d72bc72b6837d3");
    ("long", "tiny", 1095408, [ 18118; 0; 39; 78; 78; 18212; 18312; 0; 225; 75; 13071; 8; 91140 ], "c875b6da949d48ba0aa92c8ab59c7509", "8d5751116f34217d22cb52e82b8657a1");
    ("long", "eject", 3685832, [ 1713; 0; 16212; 155; 542; 17980; 18080; 155; 225; 75; 8; 0; 56 ], "c875b6da949d48ba0aa92c8ab59c7509", "077d2ef3320a05b25718133c02ebdb5f");
  ]

let test_golden_layout () =
  List.iter
    (fun (set, bindings) ->
      List.iter
        (fun (name, cfg) ->
          let bindings = List.filter (fun (k, _) -> usable cfg k) (Lazy.force bindings) in
          let mem, counts, it, heap = layout (of_sorted cfg bindings) in
          let got =
            Printf.sprintf "(%S, %S, %d, [ %s ], %S, %S);" set name mem
              (String.concat "; " (List.map string_of_int counts))
              it heap
          in
          match List.find_opt (fun (s, n, _, _, _, _) -> s = set && n = name) golden with
          | Some (_, _, mem', counts', it', heap') ->
              Alcotest.(check int) (set ^ "/" ^ name ^ " memory_usage") mem' mem;
              Alcotest.(check (list int)) (set ^ "/" ^ name ^ " stats") counts' counts;
              Alcotest.(check string) (set ^ "/" ^ name ^ " iter digest") it' it;
              Alcotest.(check string) (set ^ "/" ^ name ^ " heap digest") heap' heap
          | None -> Alcotest.failf "no golden row for %s" got)
        golden_configs)
    [ ("ngrams", golden_ngrams); ("shared", golden_shared); ("long", golden_long) ]

(* ---- allocation budget ------------------------------------------------ *)

(* Minor-heap words per key: a count that does not depend on the machine's
   speed.  The builder writes records straight into their chunks and the
   decoder reads frames where they lie, so what is left per key is the
   key string, its value box and a little per-container bookkeeping. *)
let test_alloc_budget () =
  let n = 100_000 in
  let words f =
    let m0 = Gc.minor_words () in
    let r = f () in
    (r, (Gc.minor_words () -. m0) /. float_of_int n)
  in
  List.iter
    (fun (name, cfg) ->
      let keys =
        Array.map (S.stored_key cfg)
          (Workload.Keystream.keys (Workload.Keystream.create ~n ()))
      in
      Array.sort String.compare keys;
      let values =
        Array.mapi (fun i _ -> if i mod 3 = 0 then None else Some (Int64.of_int i)) keys
      in
      let built, w = words (fun () -> S.of_sorted ~config:cfg keys values) in
      let store =
        match built with Ok s -> s | Error e -> Alcotest.fail (E.to_string e)
      in
      if w > 25. then Alcotest.failf "%s: of_sorted allocates %.1f minor words per key" name w;
      let path = Filename.temp_file "hyperion_bulk" ".hyp" in
      (match Persist.save_snapshot store path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (E.to_string e));
      let loaded, w = words (fun () -> Persist.Snapshot.load_sorted ~config:cfg path) in
      Sys.remove path;
      (match loaded with
      | Ok (k, _, _) -> Alcotest.(check int) (name ^ ": keys loaded") n (Array.length k)
      | Error e -> Alcotest.fail (E.to_string e));
      if w > 12. then
        Alcotest.failf "%s: load_sorted allocates %.1f minor words per key" name w)
    [ ("default", H.Config.default); ("preprocess", { H.Config.default with preprocess = true }) ]

let () =
  Alcotest.run "bulk"
    [
      ( "of_sorted",
        [
          QCheck_alcotest.to_alcotest q_matches;
          QCheck_alcotest.to_alcotest q_cap_key;
          Alcotest.test_case "dense fan-out" `Quick test_dense;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
          Alcotest.test_case "golden layout" `Quick test_golden_layout;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "order enforced" `Quick test_snapshot_order;
          Alcotest.test_case "record count bounded" `Quick test_snapshot_count_bound;
          Alcotest.test_case "round trip" `Quick test_snapshot_roundtrip;
        ] );
    ]
