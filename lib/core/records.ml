let read_u16 buf pos = Bytes.get_uint8 buf pos lor (Bytes.get_uint8 buf (pos + 1) lsl 8)

let write_u16 buf pos v =
  if v < 0 || v > 0xffff then invalid_arg "Records.write_u16: out of range";
  Bytes.set_uint8 buf pos (v land 0xff);
  Bytes.set_uint8 buf (pos + 1) ((v lsr 8) land 0xff)

let read_value buf pos = Bytes.get_int64_le buf pos
let write_value buf pos v = Bytes.set_int64_le buf pos v

type tnode = {
  t_pos : int;
  t_flag : int;
  t_key : int;
  t_head_end : int;
  t_value_pos : int;
  t_js_pos : int;
  t_jt_pos : int;
}

type snode = {
  s_pos : int;
  s_flag : int;
  s_key : int;
  s_head_end : int;
  s_value_pos : int;
  s_end : int;
}

let decode_key buf pos flag ~prev_key ~known =
  let delta = Node.delta_of_flag flag in
  match known with
  | Some k -> (k, if delta = 0 then pos + 2 else pos + 1)
  | None ->
      if delta = 0 then (Bytes.get_uint8 buf (pos + 1), pos + 2)
      else begin
        if prev_key < 0 then
          invalid_arg "Records: delta-encoded record without predecessor";
        (prev_key + delta, pos + 1)
      end

let parse_t_gen buf pos ~prev_key ~known =
  let flag = Bytes.get_uint8 buf pos in
  assert (not (Node.is_snode flag));
  let key, after_key = decode_key buf pos flag ~prev_key ~known in
  let js_pos, after_js =
    if Node.has_js flag then (after_key, after_key + Node.js_size)
    else (-1, after_key)
  in
  let jt_pos, after_jt =
    if Node.has_jt flag then (after_js, after_js + Node.jt_size)
    else (-1, after_js)
  in
  let value_pos, head_end =
    if Node.typ_of_flag flag = Node.Leaf_value then
      (after_jt, after_jt + Node.value_size)
    else (-1, after_jt)
  in
  {
    t_pos = pos;
    t_flag = flag;
    t_key = key;
    t_head_end = head_end;
    t_value_pos = value_pos;
    t_js_pos = js_pos;
    t_jt_pos = jt_pos;
  }

let parse_t buf pos ~prev_key = parse_t_gen buf pos ~prev_key ~known:None
let parse_t_known buf pos ~key = parse_t_gen buf pos ~prev_key:(-1) ~known:(Some key)

type pc = {
  pc_pos : int;
  pc_header : int;
  pc_value_pos : int;
  pc_suffix_pos : int;
  pc_suffix_len : int;
  pc_end : int;
}

let parse_pc buf pos =
  let header = Bytes.get_uint8 buf pos in
  let len = Node.pc_len header in
  let value_pos, suffix_pos =
    if Node.pc_has_value header then (pos + 1, pos + 1 + Node.value_size)
    else (-1, pos + 1)
  in
  {
    pc_pos = pos;
    pc_header = header;
    pc_value_pos = value_pos;
    pc_suffix_pos = suffix_pos;
    pc_suffix_len = len;
    pc_end = suffix_pos + len;
  }

let child_body_size buf pos flag =
  match Node.child_of_flag flag with
  | Node.No_child -> 0
  | Node.Child_hp -> Hp.byte_size
  | Node.Child_embedded -> Layout.emb_total_size buf pos
  | Node.Child_pc -> Node.pc_body_size (Bytes.get_uint8 buf pos)

let parse_s_gen buf pos ~prev_key ~known =
  let flag = Bytes.get_uint8 buf pos in
  assert (Node.is_snode flag);
  let key, after_key = decode_key buf pos flag ~prev_key ~known in
  let value_pos, head_end =
    if Node.typ_of_flag flag = Node.Leaf_value then
      (after_key, after_key + Node.value_size)
    else (-1, after_key)
  in
  {
    s_pos = pos;
    s_flag = flag;
    s_key = key;
    s_head_end = head_end;
    s_value_pos = value_pos;
    s_end = head_end + child_body_size buf head_end flag;
  }

let parse_s buf pos ~prev_key = parse_s_gen buf pos ~prev_key ~known:None
let parse_s_known buf pos ~key = parse_s_gen buf pos ~prev_key:(-1) ~known:(Some key)

let s_record_size buf pos =
  let flag = Bytes.get_uint8 buf pos in
  let head = Node.s_head_size flag in
  head + child_body_size buf (pos + head) flag

let next_t_pos buf t ~limit =
  if t.t_js_pos >= 0 then
    let off = read_u16 buf t.t_js_pos in
    min limit (t.t_pos + off)
  else begin
    let pos = ref t.t_head_end in
    let continue = ref true in
    while !continue do
      if !pos >= limit then continue := false
      else
        let flag = Bytes.get_uint8 buf !pos in
        if flag = 0 || not (Node.is_snode flag) then continue := false
        else pos := !pos + s_record_size buf !pos
    done;
    !pos
  end

let jt_key buf jt_pos i = Bytes.get_uint8 buf (jt_pos + (3 * i))
let jt_off buf jt_pos i = read_u16 buf (jt_pos + (3 * i) + 1)

let jt_set_entry buf jt_pos i ~key ~off =
  let p = jt_pos + (3 * i) in
  Bytes.set_uint8 buf p key;
  write_u16 buf (p + 1) off
