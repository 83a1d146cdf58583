open Types

let delta_for ~prev_key ~key =
  if prev_key >= 0 && key - prev_key >= 1 && key - prev_key <= 7 then
    key - prev_key
  else 0

let value_string v =
  let b = Bytes.create Node.value_size in
  Records.write_value b 0 v;
  (* SAFETY: [b] is freshly allocated, fully written, and never mutated or
     aliased after this conversion. *)
  Bytes.unsafe_to_string b

let check_typ_value typ value =
  match (typ, value) with
  | Node.Leaf_value, Some _ -> ()
  | (Node.Inner | Node.Leaf_no_value), None -> ()
  | _ -> invalid_arg "Encode: type / value mismatch"

let record ~flag ~delta ~key ~value =
  let b = Buffer.create 12 in
  Buffer.add_char b (Char.chr flag);
  if delta = 0 then Buffer.add_char b (Char.chr key);
  (match value with Some v -> Buffer.add_string b (value_string v) | None -> ());
  Buffer.contents b

let t_record ~prev_key ~key ~typ ~value =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  record ~flag:(Node.t_flag ~typ ~delta ~js:false ~jt:false) ~delta ~key ~value

let s_record ~prev_key ~key ~typ ~value ~child =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  record ~flag:(Node.s_flag ~typ ~delta ~child) ~delta ~key ~value

let pc_body suffix value =
  let len = String.length suffix in
  let header = Node.pc_header ~len ~has_value:(value <> None) in
  let b = Buffer.create (len + 9) in
  Buffer.add_char b (Char.chr header);
  (match value with Some v -> Buffer.add_string b (value_string v) | None -> ());
  Buffer.add_string b suffix;
  Buffer.contents b

let hp_body hp =
  let b = Bytes.create Hp.byte_size in
  Hp.write b 0 hp;
  (* SAFETY: [b] is freshly allocated, fully written, and never mutated or
     aliased after this conversion. *)
  Bytes.unsafe_to_string b

let head_frag_size flag = if Node.delta_of_flag flag = 0 then 2 else 1

let re_encode_head buf pos ~key ~new_prev =
  let flag = Bytes.get_uint8 buf pos in
  let old_delta = Node.delta_of_flag flag in
  let old_size = if old_delta = 0 then 2 else 1 in
  assert (old_delta = 0 || key >= old_delta);
  let delta = delta_for ~prev_key:new_prev ~key in
  let flag' = Node.with_delta flag delta in
  let frag =
    if delta = 0 then
      let b = Bytes.create 2 in
      Bytes.set_uint8 b 0 flag';
      Bytes.set_uint8 b 1 key;
      (* SAFETY: [b] is freshly allocated, fully written, and never mutated
         or aliased after this conversion. *)
      Bytes.unsafe_to_string b
    else String.make 1 (Char.chr flag')
  in
  (frag, String.length frag - old_size)

(* ---- child encodings for whole suffixes ---- *)

let emb_budget trie = min 255 trie.cfg.embedded_max

(* Child body for suffixes short enough that recursion depth stays small
   (embedding absorbs at most ~260 bytes before a real container is
   required, and each nesting level strips two key bytes).  [dry] computes
   the exact byte layout without allocating real containers (HP bodies are
   5 bytes regardless of their value), so callers can size an insertion
   before committing to it. *)
let rec make_child_short ~dry trie suffix value =
  let len = String.length suffix in
  if len <= trie.cfg.pc_max then (Node.Child_pc, pc_body suffix value)
  else begin
    let content = region_with ~child:(make_child_short ~dry) trie suffix value in
    if 1 + String.length content <= emb_budget trie then begin
      let b = Buffer.create (1 + String.length content) in
      Buffer.add_char b (Char.chr (1 + String.length content));
      Buffer.add_string b content;
      (Node.Child_embedded, Buffer.contents b)
    end
    else
      let hp = if dry then Hp.null else Splice.new_container trie content in
      (Node.Child_hp, hp_body hp)
  end

(* A region indexing one key [suffix]: its first two bytes as a T and an
   S record, the rest encoded by [child]. *)
and region_with ~child trie suffix value =
  ignore trie.cfg.delta_encoding (* single-key regions never delta-encode *);
  let len = String.length suffix in
  if len = 0 then invalid_arg "Encode.region_for: empty suffix";
  let k0 = Char.code suffix.[0] in
  if len = 1 then
    let typ = match value with Some _ -> Node.Leaf_value | None -> Node.Leaf_no_value in
    t_record ~prev_key:(-1) ~key:k0 ~typ ~value
  else begin
    let k1 = Char.code suffix.[1] in
    let t = t_record ~prev_key:(-1) ~key:k0 ~typ:Node.Inner ~value:None in
    if len = 2 then
      let typ = match value with Some _ -> Node.Leaf_value | None -> Node.Leaf_no_value in
      t ^ s_record ~prev_key:(-1) ~key:k1 ~typ ~value ~child:Node.No_child
    else begin
      let kind, body = child trie (String.sub suffix 2 (len - 2)) value in
      t
      ^ s_record ~prev_key:(-1) ~key:k1 ~typ:Node.Inner ~value:None ~child:kind
      ^ body
    end
  end

(* Keys beyond this length are wrapped iteratively in real containers to
   bound recursion depth. *)
let long_threshold = 512

let make_child ?(dry = false) trie suffix value =
  let len = String.length suffix in
  if len = 0 then invalid_arg "Encode.make_child: empty suffix";
  if len <= long_threshold then make_child_short ~dry trie suffix value
  else begin
    (* Bottom-up: encode a short tail, then wrap pairs of key bytes in real
       containers front-to-back.  The tail start is even so every wrapper
       level consumes exactly one (T, S) pair. *)
    let tail_start =
      let ts = len - (long_threshold / 2) in
      if ts mod 2 = 0 then ts else ts + 1
    in
    let tail = String.sub suffix tail_start (len - tail_start) in
    let kind = ref Node.Child_hp and body = ref "" in
    let k, b = make_child_short ~dry trie tail value in
    kind := k;
    body := b;
    let i = ref (tail_start - 2) in
    while !i >= 0 do
      let t =
        t_record ~prev_key:(-1) ~key:(Char.code suffix.[!i]) ~typ:Node.Inner
          ~value:None
      in
      let s =
        s_record ~prev_key:(-1)
          ~key:(Char.code suffix.[!i + 1])
          ~typ:Node.Inner ~value:None ~child:!kind
      in
      let content = t ^ s ^ !body in
      if !i = 0 && 1 + String.length content <= emb_budget trie then begin
        kind := Node.Child_embedded;
        body := String.make 1 (Char.chr (1 + String.length content)) ^ content
      end
      else begin
        kind := Node.Child_hp;
        body := hp_body (if dry then Hp.null else Splice.new_container trie content)
      end;
      i := !i - 2
    done;
    (!kind, !body)
  end

(* Through [make_child], so a long suffix takes the iterative path: the
   first key of an empty trie can be up to 2^20 bytes. *)
let region_for trie suffix value =
  region_with ~child:(make_child ~dry:false) trie suffix value
