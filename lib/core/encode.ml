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

(* ---- buffer writers ---- *)

(* Flag byte, key byte unless delta-encoded; the position after them. *)
let write_frag buf pos ~flag ~delta ~key =
  Bytes.set_uint8 buf pos flag;
  if delta = 0 then begin
    Bytes.set_uint8 buf (pos + 1) key;
    pos + 2
  end
  else pos + 1

let write_value_opt buf pos = function
  | Some v ->
      Records.write_value buf pos v;
      pos + Node.value_size
  | None -> pos

let write_t_head_jumps buf pos ~js ~jt ~prev_key ~key ~typ ~value =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  let pos = write_frag buf pos ~flag:(Node.t_flag ~typ ~delta ~js ~jt) ~delta ~key in
  let pos =
    pos + (if js then Node.js_size else 0) + if jt then Node.jt_size else 0
  in
  write_value_opt buf pos value

let write_t_head buf pos ~prev_key ~key ~typ ~value =
  write_t_head_jumps buf pos ~js:false ~jt:false ~prev_key ~key ~typ ~value

let write_s_head buf pos ~prev_key ~key ~typ ~value ~child =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  let pos = write_frag buf pos ~flag:(Node.s_flag ~typ ~delta ~child) ~delta ~key in
  write_value_opt buf pos value

let write_pc buf pos src ~off ~len value =
  Bytes.set_uint8 buf pos (Node.pc_header ~len ~has_value:(Option.is_some value));
  let pos = write_value_opt buf (pos + 1) value in
  Bytes.blit_string src off buf pos len;
  pos + len

let write_hp buf pos hp =
  Hp.write buf pos hp;
  pos + Hp.byte_size

(* ---- the same encodings as fresh strings ---- *)

let t_record ~prev_key ~key ~typ ~value =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  let b = Bytes.create (Node.t_head_size (Node.t_flag ~typ ~delta ~js:false ~jt:false)) in
  ignore (write_t_head b 0 ~prev_key ~key ~typ ~value);
  (* SAFETY: [b] is freshly allocated, fully written by the writer, and
     never mutated or aliased after this conversion. *)
  Bytes.unsafe_to_string b

let s_record ~prev_key ~key ~typ ~value ~child =
  check_typ_value typ value;
  let delta = delta_for ~prev_key ~key in
  let b = Bytes.create (Node.s_head_size (Node.s_flag ~typ ~delta ~child)) in
  ignore (write_s_head b 0 ~prev_key ~key ~typ ~value ~child);
  (* SAFETY: [b] is freshly allocated, fully written by the writer, and
     never mutated or aliased after this conversion. *)
  Bytes.unsafe_to_string b

let pc_body suffix value =
  let len = String.length suffix in
  let b =
    Bytes.create (1 + (if Option.is_some value then Node.value_size else 0) + len)
  in
  ignore (write_pc b 0 suffix ~off:0 ~len value);
  (* SAFETY: [b] is freshly allocated, fully written by the writer, and
     never mutated or aliased after this conversion. *)
  Bytes.unsafe_to_string b

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

(* The child of a suffix of [r] bytes is a path-compressed body when
   [r <= pc_max]; otherwise a region — a T record over its first byte
   and, when there is a second, an S record over it whose child holds the
   rest — which embeds when [1 + size] fits the budget and otherwise
   takes a container of its own.  Level [j] of such a chain covers the
   suffix from byte [2 j].  Every level's body is sized bottom-up in
   integers first ([levels]); the containers are then allocated
   bottom-up, each written straight into its chunk ([alloc_child]); what
   lies above the topmost container is written where the caller wants it
   ([write_child]).  Suffixes longer than [long_threshold] keep a short
   tail chain and wrap the pairs in front of it in containers
   front-to-back, so the work stays linear in the key length. *)

let emb_budget trie = min 255 trie.cfg.embedded_max
let long_threshold = 512

type chain = int array

let chain () = Array.make ((long_threshold / 2) + 2) 0

(* A child's kind and body size packed in one int. *)
let pack size kind = (size lsl 2) lor Node.child_code kind
let child_kind p = Node.child_of_code (p land 3)
let child_size p = p lsr 2

let vsize has_value = if has_value then Node.value_size else 0

(* Bytes of the level holding [r] bytes when it is a region; [next] is
   the packed body of the level below (read only when [r > 2]). *)
let region_size ~r ~vs next =
  if r = 1 then 2 + vs else if r = 2 then 4 + vs else 4 + child_size next

(* Fill [lv] with the packed body of each level of the short chain for a
   [len]-byte suffix; the number of levels. *)
let levels trie lv ~len ~has_value =
  let pc_max = trie.cfg.pc_max and budget = emb_budget trie in
  let vs = vsize has_value in
  let n = ref 1 in
  while
    let r = len - (2 * (!n - 1)) in
    r > pc_max && r > 2
  do
    incr n
  done;
  for j = !n - 1 downto 0 do
    let r = len - (2 * j) in
    lv.(j) <-
      (if r <= pc_max then pack (1 + vs + r) Node.Child_pc
       else
         let size = region_size ~r ~vs (if r > 2 then lv.(j + 1) else 0) in
         if 1 + size <= budget then pack (1 + size) Node.Child_embedded
         else pack Hp.byte_size Node.Child_hp)
  done;
  !n

let leaf_typ value =
  if Option.is_some value then Node.Leaf_value else Node.Leaf_no_value

(* One (T, S) pair over [src.[i]], [src.[i+1]] with an inner S-node. *)
let write_pair src i ~child buf pos =
  let pos =
    write_t_head buf pos ~prev_key:(-1) ~key:(Char.code src.[i]) ~typ:Node.Inner
      ~value:None
  in
  write_s_head buf pos ~prev_key:(-1)
    ~key:(Char.code src.[i + 1])
    ~typ:Node.Inner ~value:None ~child

(* The T/S heads of level [j]'s region of the suffix [src.[off ..]]; the
   position after them.  The level continues below iff [r > 2]. *)
let write_heads lv src ~off ~len value j buf pos =
  let r = len - (2 * j) and b = off + (2 * j) in
  if r > 2 then write_pair src b ~child:(child_kind lv.(j + 1)) buf pos
  else
    let k0 = Char.code src.[b] in
    if r = 1 then
      write_t_head buf pos ~prev_key:(-1) ~key:k0 ~typ:(leaf_typ value) ~value
    else
      let pos = write_t_head buf pos ~prev_key:(-1) ~key:k0 ~typ:Node.Inner ~value:None in
      write_s_head buf pos ~prev_key:(-1)
        ~key:(Char.code src.[b + 1])
        ~typ:(leaf_typ value) ~value ~child:Node.No_child

(* Level [j]'s body and the embedded levels below it, down to a
   path-compressed body or the next container [hp]. *)
let write_body lv src ~off ~len value j ~hp buf pos =
  let pos = ref pos and j = ref j and go = ref true in
  while !go do
    let p = lv.(!j) in
    match child_kind p with
    | Node.Child_pc ->
        let b = 2 * !j in
        pos := write_pc buf !pos src ~off:(off + b) ~len:(len - b) value;
        go := false
    | Node.Child_hp ->
        pos := write_hp buf !pos hp;
        go := false
    | Node.Child_embedded | Node.No_child ->
        Bytes.set_uint8 buf !pos (child_size p);
        pos := write_heads lv src ~off ~len value !j buf (!pos + 1);
        if len - (2 * !j) > 2 then incr j else go := false
  done;
  !pos

(* A fresh container holding [size] content bytes, written by [write];
   a chain's region is one T-node, over the byte [src.[at]]. *)
let container trie src ~at size write =
  let hp = Splice.alloc_container trie size in
  let buf, base = Memman.resolve trie.mm hp in
  ignore (write buf (base + Layout.payload_start buf base));
  Layout.write_tag buf base (Tag.bit (Char.code src.[at]));
  hp

(* Level [j]'s region: its heads, then the body of the level below. *)
let write_region lv src ~off ~len value j ~hp buf pos =
  let pos = write_heads lv src ~off ~len value j buf pos in
  if len - (2 * j) > 2 then write_body lv src ~off ~len value (j + 1) ~hp buf pos
  else pos

(* The containers of the short chain in [lv] (n levels), bottom-up; the
   HP the levels above the topmost one link to. *)
let alloc_levels trie lv ~n src ~off ~len value =
  let vs = vsize (Option.is_some value) in
  let hp = ref Hp.null in
  for j = n - 1 downto 0 do
    if child_kind lv.(j) = Node.Child_hp then begin
      let r = len - (2 * j) in
      let below = !hp in
      hp :=
        container trie src ~at:(off + (2 * j))
          (region_size ~r ~vs (if r > 2 then lv.(j + 1) else 0))
          (write_region lv src ~off ~len value j ~hp:below)
    end
  done;
  !hp

let tail_start len =
  let ts = len - (long_threshold / 2) in
  if ts mod 2 = 0 then ts else ts + 1

(* A long suffix's outermost pair embeds around the HP of the next one
   when those ten bytes fit the budget. *)
let long_top_embeds trie = 1 + 4 + Hp.byte_size <= emb_budget trie

let layout_child trie lv ~len ~has_value =
  if len <= trie.cfg.pc_max then pack (1 + vsize has_value + len) Node.Child_pc
  else if len <= long_threshold then begin
    ignore (levels trie lv ~len ~has_value);
    lv.(0)
  end
  else if long_top_embeds trie then pack (1 + 4 + Hp.byte_size) Node.Child_embedded
  else pack Hp.byte_size Node.Child_hp

let alloc_child trie lv src ~off ~len value =
  if len <= trie.cfg.pc_max then Hp.null
  else if len <= long_threshold then
    let n = levels trie lv ~len ~has_value:(Option.is_some value) in
    alloc_levels trie lv ~n src ~off ~len value
  else begin
    (* the tail's chain, then the pairs in front of it back to front *)
    let ts = tail_start len in
    let tlen = len - ts in
    let n = levels trie lv ~len:tlen ~has_value:(Option.is_some value) in
    let tail_hp = alloc_levels trie lv ~n src ~off:(off + ts) ~len:tlen value in
    let tail = lv.(0) in
    let hp =
      ref
        (container trie src ~at:(off + ts - 2) (4 + child_size tail) (fun buf pos ->
             let pos = write_pair src (off + ts - 2) ~child:(child_kind tail) buf pos in
             write_body lv src ~off:(off + ts) ~len:tlen value 0 ~hp:tail_hp buf pos))
    in
    let last = if long_top_embeds trie then 2 else 0 in
    let i = ref (ts - 4) in
    while !i >= last do
      let below = !hp and at = off + !i in
      hp :=
        container trie src ~at (4 + Hp.byte_size) (fun buf pos ->
            write_hp buf (write_pair src at ~child:Node.Child_hp buf pos) below);
      i := !i - 2
    done;
    !hp
  end

let write_child ?(bare = false) trie lv src ~off ~len value ~hp buf pos =
  if len <= trie.cfg.pc_max then write_pc buf pos src ~off ~len value
  else if len <= long_threshold then begin
    ignore (levels trie lv ~len ~has_value:(Option.is_some value));
    if bare then write_region lv src ~off ~len value 0 ~hp buf pos
    else write_body lv src ~off ~len value 0 ~hp buf pos
  end
  else if long_top_embeds trie then begin
    let pos =
      if bare then pos
      else begin
        Bytes.set_uint8 buf pos (1 + 4 + Hp.byte_size);
        pos + 1
      end
    in
    write_hp buf (write_pair src off ~child:Node.Child_hp buf pos) hp
  end
  else write_hp buf pos hp

let make_child ?(dry = false) trie suffix value =
  let len = String.length suffix in
  if len = 0 then invalid_arg "Encode.make_child: empty suffix";
  if len <= trie.cfg.pc_max then (Node.Child_pc, pc_body suffix value)
  else begin
    let lv = Array.make ((min len long_threshold / 2) + 2) 0 in
    let p = layout_child trie lv ~len ~has_value:(Option.is_some value) in
    let hp = if dry then Hp.null else alloc_child trie lv suffix ~off:0 ~len value in
    let b = Bytes.create (child_size p) in
    ignore (write_child trie lv suffix ~off:0 ~len value ~hp b 0);
    (* SAFETY: [b] is freshly allocated, fully written, and never mutated
       or aliased after this conversion. *)
    (child_kind p, Bytes.unsafe_to_string b)
  end

(* A region indexing one key [suffix]: its first two bytes as a T and an
   S record, the rest through [make_child]'s encoding, so a long suffix
   takes the iterative path: the first key of an empty trie can be up to
   2^20 bytes. *)
let region_for trie suffix value =
  let len = String.length suffix in
  if len = 0 then invalid_arg "Encode.region_for: empty suffix";
  if len <= 2 then begin
    let lv = [| 0 |] in
    let b = Bytes.create (region_size ~r:len ~vs:(vsize (Option.is_some value)) 0) in
    ignore (write_heads lv suffix ~off:0 ~len value 0 b 0);
    (* SAFETY: [b] is freshly allocated, fully written, and never mutated
       or aliased after this conversion. *)
    Bytes.unsafe_to_string b
  end
  else begin
    let rest = len - 2 in
    let lv = Array.make ((min rest long_threshold / 2) + 2) 0 in
    let p = layout_child trie lv ~len:rest ~has_value:(Option.is_some value) in
    let hp = alloc_child trie lv suffix ~off:2 ~len:rest value in
    let b = Bytes.create (4 + child_size p) in
    let pos = write_pair suffix 0 ~child:(child_kind p) b 0 in
    ignore (write_child trie lv suffix ~off:2 ~len:rest value ~hp b pos);
    (* SAFETY: [b] is freshly allocated, fully written, and never mutated
       or aliased after this conversion. *)
    Bytes.unsafe_to_string b
  end
