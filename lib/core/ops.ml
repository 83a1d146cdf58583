open Types

let max_key_len = 1 lsl 20

let create cfg =
  Config.validate cfg;
  {
    cfg;
    mm =
      Memman.create ~chunks_per_bin:cfg.chunks_per_bin
        ~max_metabins:cfg.max_metabins ();
    root = Hp.null;
  }

let kb key i = Char.code key.[i]
let typ_for = function Some _ -> Node.Leaf_value | None -> Node.Leaf_no_value

let check_key key =
  let len = String.length key in
  if len = 0 then invalid_arg "Hyperion: empty keys are not supported";
  if len > max_key_len then invalid_arg "Hyperion: key longer than 2^20 bytes"

(* Does the PC node's suffix equal key[from..]? *)
let pc_matches buf pc key from =
  let rest = String.length key - from in
  pc.Records.pc_suffix_len = rest
  &&
  let rec eq i =
    i = rest
    || Bytes.get buf (pc.Records.pc_suffix_pos + i) = key.[from + i] && eq (i + 1)
  in
  eq 0

let terminal_of_flag buf flag value_pos =
  match Node.typ_of_flag flag with
  | Node.Inner -> None
  | Node.Leaf_no_value -> Some None
  | Node.Leaf_value -> Some (Some (Records.read_value buf value_pos))
  | Node.Invalid ->
      Hyperion_error.fail
        (Hyperion_error.Chunk_corrupt
           "terminal_of_flag: invalid node type bits in live record")

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

(* One container's worth of descent, shared verbatim by the sequential
   [find] and the batched memory-level-parallel path ({!Getmany}): both
   run exactly this code per container, so batched results are
   bit-identical to sequential ones by construction. *)
type container_probe =
  | P_done of int64 option option
  | P_child of Hp.t * int

let rec probe_region cbox region key level =
  let len = String.length key in
  let traversed = ref 0 in
  match Scan.find_t cbox region (kb key level) ~traversed with
  | Scan.T_insert _ -> P_done None
  | Scan.T_found (t, _) -> (
      if level = len - 1 then
        P_done (terminal_of_flag cbox.buf t.Records.t_flag t.Records.t_value_pos)
      else
        match Scan.find_s cbox region t (kb key (level + 1)) with
        | Scan.S_insert _ -> P_done None
        | Scan.S_found (s, _) -> (
            if level + 2 = len then
              P_done
                (terminal_of_flag cbox.buf s.Records.s_flag
                   s.Records.s_value_pos)
            else
              match Node.child_of_flag s.Records.s_flag with
              | Node.No_child -> P_done None
              | Node.Child_pc ->
                  let pc = Records.parse_pc cbox.buf s.Records.s_head_end in
                  P_done
                    (if pc_matches cbox.buf pc key (level + 2) then
                       if pc.Records.pc_value_pos >= 0 then
                         Some
                           (Some
                              (Records.read_value cbox.buf
                                 pc.Records.pc_value_pos))
                       else Some None
                     else None)
              | Node.Child_embedded ->
                  probe_region cbox
                    (emb_region cbox.buf s.Records.s_head_end)
                    key (level + 2)
              | Node.Child_hp ->
                  P_child (Hp.read cbox.buf s.Records.s_head_end, level + 2)))

let probe_container trie hp key level =
  let cbox = Splice.open_container trie hp ~tkey:(kb key level) ~where:W_slot in
  if not (Tag.may_contain (Layout.read_tag cbox.buf cbox.base) (kb key level))
  then begin
    Tag.note_rejected ();
    P_done None
  end
  else probe_region cbox (top_region cbox.buf cbox.base) key level

let rec lookup_container trie hp key level =
  match probe_container trie hp key level with
  | P_done r -> r
  | P_child (child, level') -> lookup_container trie child key level'

let find trie key =
  check_key key;
  if Hp.is_null trie.root then None else lookup_container trie trie.root key 0

(* ------------------------------------------------------------------ *)
(* Embedded-container ejection (paper Fig. 8)                          *)
(* ------------------------------------------------------------------ *)

let emb_budget trie = min 255 trie.cfg.embedded_max

(* Turn the embedded container at [e_pos] (owned by the S-node at [s_pos])
   into a real container referenced by an HP; [enclosing] are the embedded
   containers around it, outermost first. *)
let c_eject =
  Telemetry.Counter.make "hyperion_embedded_eject_total"
    ~help:"Embedded containers ejected to real containers (paper Fig. 8)"

let c_split =
  Telemetry.Counter.make "hyperion_container_split_total"
    ~help:"Vertical container splits performed (paper Fig. 11)"

let eject trie cbox enclosing s_pos e_pos =
  Telemetry.mark Telemetry.Path.embedded_eject;
  if Telemetry.enabled () then Telemetry.Counter.incr c_eject;
  let buf = cbox.buf in
  let size = Layout.emb_total_size buf e_pos in
  let content = Bytes.sub_string buf (e_pos + 1) (size - 1) in
  let hp = Splice.new_container trie content in
  let s_rel = s_pos - cbox.base in
  (* A splice failure aborts before mutating the parent; reclaim the
     freshly ejected container so the failed put leaves no trace. *)
  (try
     Splice.splice cbox ~emb_chain:enclosing ~at:e_pos ~remove:size
       ~ins:(Encode.hp_body hp) ~keep_at:false
   with e ->
     Memman.free trie.mm hp;
     raise e);
  let p = cbox.base + s_rel in
  Bytes.set_uint8 cbox.buf p
    (Node.with_child (Bytes.get_uint8 cbox.buf p) Node.Child_hp)

(* Before growing by [growth] bytes inside [emb_chain]: eject the outermost
   embedded container that would overflow its size budget, then restart. *)
let guard_emb trie cbox emb_chain growth =
  if growth > 0 then begin
    let budget = emb_budget trie in
    let rec check prefix = function
      | [] -> ()
      | (s_pos, e_pos) :: rest ->
          if Layout.emb_total_size cbox.buf e_pos + growth > budget then begin
            eject trie cbox (List.rev prefix) s_pos e_pos;
            raise Restart
          end
          else check ((s_pos, e_pos) :: prefix) rest
    in
    check [] emb_chain
  end

(* ------------------------------------------------------------------ *)
(* Jump-successor and jump-table maintenance (paper Section 3.3)       *)
(* ------------------------------------------------------------------ *)

(* End of the T-node's S-children found by walking record sizes (never via
   the — possibly not yet valid — jump successor). *)
let walk_children_end buf head_end limit =
  let pos = ref head_end in
  let continue = ref true in
  while !continue do
    if !pos >= limit then continue := false
    else
      let flag = Bytes.get_uint8 buf !pos in
      if flag = 0 || not (Node.is_snode flag) then continue := false
      else pos := !pos + Records.s_record_size buf !pos
  done;
  !pos

let add_js cbox t =
  let t_rel = t.Records.t_pos - cbox.base in
  let at = t.Records.t_pos + Encode.head_frag_size t.Records.t_flag in
  Splice.splice cbox ~emb_chain:[] ~at ~remove:0 ~ins:"\000\000" ~keep_at:false;
  let buf = cbox.buf in
  let p = cbox.base + t_rel in
  Bytes.set_uint8 buf p (Node.with_js (Bytes.get_uint8 buf p) true);
  let region = top_region buf cbox.base in
  let t' = Records.parse_t_known buf p ~key:t.Records.t_key in
  let e = walk_children_end buf t'.Records.t_head_end region.re in
  Records.write_u16 buf t'.Records.t_js_pos (e - p)

let collect_children buf t limit =
  let out = ref [] in
  let pos = ref t.Records.t_head_end and prev = ref (-1) in
  let continue = ref true in
  while !continue do
    if !pos >= limit then continue := false
    else
      let flag = Bytes.get_uint8 buf !pos in
      if flag = 0 || not (Node.is_snode flag) then continue := false
      else begin
        let s = Records.parse_s buf !pos ~prev_key:!prev in
        out := (s.Records.s_key, s.Records.s_pos) :: !out;
        prev := s.Records.s_key;
        pos := s.Records.s_end
      end
  done;
  Array.of_list (List.rev !out)

let refill_tjt cbox t =
  let buf = cbox.buf in
  let region = top_region buf cbox.base in
  let limit = Scan.t_children_end cbox region t in
  let children = collect_children buf t limit in
  Jumps.fill_tjt buf t.Records.t_jt_pos ~n:(Array.length children) (fun j ->
      let key, pos = children.(j) in
      (key, pos - t.Records.t_pos))

let add_tjt cbox t =
  assert (t.Records.t_js_pos >= 0);
  let t_rel = t.Records.t_pos - cbox.base in
  let at = t.Records.t_js_pos + Node.js_size in
  Splice.splice cbox ~emb_chain:[] ~at ~remove:0
    ~ins:(String.make Node.jt_size '\000')
    ~keep_at:false;
  let buf = cbox.buf in
  let p = cbox.base + t_rel in
  Bytes.set_uint8 buf p (Node.with_jt (Bytes.get_uint8 buf p) true);
  let t' = Records.parse_t_known buf p ~key:t.Records.t_key in
  refill_tjt cbox t'

(* Bring the T-node for [k0] up to date after an insert below it.  All
   checks are capped or demand-driven so a put never pays a full child
   walk: the jump table is refilled only when [stale] reports that the
   last scan had to walk far past its best entry. *)
let rec maintain_t trie cbox k0 ~stale rounds =
  if rounds < 4 then begin
    let region = top_region cbox.buf cbox.base in
    let traversed = ref 0 in
    match Scan.find_t cbox region k0 ~traversed with
    | Scan.T_insert _ -> ()
    | Scan.T_found (t, _) ->
        let cap = trie.cfg.tnode_jt_threshold + 1 in
        let n = Scan.count_s_children ~cap cbox region t in
        (* the span is walked only when a jump field is about to be added *)
        let fits extra =
          Jumps.span_fits
            (Scan.t_children_end cbox region t - t.Records.t_pos + extra)
        in
        if
          t.Records.t_js_pos < 0
          && Jumps.wants_js trie.cfg ~children:n
          && fits Node.js_size
        then begin
          add_js cbox t;
          maintain_t trie cbox k0 ~stale (rounds + 1)
        end
        else if
          t.Records.t_jt_pos < 0
          && Jumps.wants_tjt trie.cfg ~children:n
          && fits Node.jt_size
        then begin
          add_tjt cbox t;
          maintain_t trie cbox k0 ~stale:false (rounds + 1)
        end
        else if t.Records.t_jt_pos >= 0 && stale then refill_tjt cbox t
  end

let collect_ts cbox =
  let buf = cbox.buf in
  let region = top_region buf cbox.base in
  let out = ref [] in
  let pos = ref region.rb and prev = ref (-1) in
  while !pos < region.re do
    let t = Records.parse_t buf !pos ~prev_key:!prev in
    out := (t.Records.t_key, t.Records.t_pos) :: !out;
    prev := t.Records.t_key;
    pos := Records.next_t_pos buf t ~limit:region.re
  done;
  Array.of_list (List.rev !out)

(* Grow the container jump table by one 7-entry level (paper: once eight
   T-nodes have been traversed) and rebalance all entries. *)
let maintain_cjt cbox =
  let buf = cbox.buf and base = cbox.base in
  let j = Layout.read_jump_levels buf base in
  let ts = collect_ts cbox in
  let count = Array.length ts in
  if count > 0 then begin
    if j < Jumps.cjt_levels ~t_nodes:count then begin
      Splice.splice cbox ~emb_chain:[]
        ~at:(base + Layout.payload_start buf base)
        ~remove:0
        ~ins:(String.make (7 * Layout.jt_entry_size) '\000')
        ~keep_at:false;
      Layout.set_jump_levels cbox.buf cbox.base (j + 1)
    end;
    let buf = cbox.buf and base = cbox.base in
    let ts = collect_ts cbox in
    Jumps.fill_cjt buf base ~n:(Array.length ts) (fun j ->
        let key, pos = ts.(j) in
        (key, pos - base))
  end

(* ------------------------------------------------------------------ *)
(* Vertical container splits (paper Fig. 11, Eq. 4)                    *)
(* ------------------------------------------------------------------ *)

let should_split trie cbox =
  let buf = cbox.buf and base = cbox.base in
  Layout.read_size buf base
  >= trie.cfg.split_a + (trie.cfg.split_b * Layout.read_split_delay buf base)

let abort_split cbox =
  let d = Layout.read_split_delay cbox.buf cbox.base in
  if d < 3 then Layout.set_split_delay cbox.buf cbox.base (d + 1);
  false

let try_split trie cbox =
  let buf = cbox.buf and base = cbox.base in
  let region = top_region buf base in
  let ts = collect_ts cbox in
  let count = Array.length ts in
  if count < 2 then abort_split cbox
  else begin
    let lo = fst ts.(0) and hi = fst ts.(count - 1) in
    if hi / 32 = lo / 32 then abort_split cbox (* single key range: Eq. (3) *)
    else begin
      (* Candidate cuts at 32-key boundaries, balancing piece sizes. *)
      let payload = region.rb and cend = region.re in
      let best = ref None in
      for b = 1 to 7 do
        let boundary = 32 * b in
        if boundary > lo && boundary <= hi then begin
          (* First T-record with key >= boundary. *)
          let cut = ref (-1) in
          Array.iter
            (fun (k, p) -> if !cut < 0 && k >= boundary then cut := p)
            ts;
          if !cut > payload then begin
            let left = !cut - payload and right = cend - !cut in
            if left >= trie.cfg.split_min_piece && right >= trie.cfg.split_min_piece
            then begin
              let score = abs (left - right) in
              match !best with
              | Some (bs, _, _) when bs <= score -> ()
              | _ -> best := Some (score, boundary, !cut)
            end
          end
        end
      done;
      match !best with
      | None -> abort_split cbox
      | Some (_, boundary, cut) ->
          (* Re-encode the right piece's first record with an explicit key
             (its delta referenced a sibling that stays in the left piece). *)
          let first_right =
            let k = ref 0 in
            Array.iter (fun (key, p) -> if p = cut then k := key) ts;
            !k
          in
          let frag, d =
            Encode.re_encode_head buf cut ~key:first_right ~new_prev:(-1)
          in
          let old_frag = Encode.head_frag_size (Bytes.get_uint8 buf cut) in
          let left_content = Bytes.sub_string buf payload (cut - payload) in
          let right_content =
            frag ^ Bytes.sub_string buf (cut + old_frag) (cend - cut - old_frag)
          in
          let right_slot = boundary / 32 in
          (* Crash consistency: every allocation happens before the old
             state is destroyed.  When the allocator fails mid-split, roll
             back whatever was built and merely delay the split — the
             container keeps absorbing inserts. *)
          match
            if cbox.slot < 0 then begin
              let ceb = Memman.ceb_alloc trie.mm in
              (try
                 let lbuf, loff = Splice.write_slot trie ceb 0 left_content in
                 Tag.recompute lbuf loff;
                 let rbuf, roff = Splice.write_slot trie ceb right_slot right_content in
                 if d <> 0 then
                   Splice.adjust_record_offsets rbuf (roff + Layout.header_size) d;
                 Tag.recompute rbuf roff
               with e ->
                 Memman.free trie.mm ceb;
                 raise e);
              (match cbox.where with
              | W_root -> trie.root <- ceb
              | W_parent (pbuf, ppos) -> Hp.write pbuf ppos ceb
              | W_slot ->
                  Hyperion_error.fail
                    (Hyperion_error.Chunk_corrupt
                       "split: container under split is already a CEB slot"));
              Memman.free trie.mm cbox.hp
            end
            else begin
              (* Populate the fresh right slot first; only then replace the
                 left slot.  The clear-and-rewrite of the left slot is the
                 one window without a recovery point, so fault injection is
                 paused across it (its only real failure mode is a runtime
                 OOM, which saturates the arena and aborts the process-level
                 invariants anyway). *)
              (try
                 let rbuf, roff =
                   Splice.write_slot trie cbox.hp right_slot right_content
                 in
                 if d <> 0 then
                   Splice.adjust_record_offsets rbuf (roff + Layout.header_size) d;
                 Tag.recompute rbuf roff
               with e ->
                 Memman.ceb_clear_slot trie.mm cbox.hp ~slot:right_slot;
                 raise e);
              Fault.with_pause (Memman.fault trie.mm) (fun () ->
                  Memman.ceb_clear_slot trie.mm cbox.hp ~slot:cbox.slot;
                  let lbuf, loff = Splice.write_slot trie cbox.hp cbox.slot left_content in
                  Tag.recompute lbuf loff)
            end
          with
          | () -> true
          | exception Hyperion_error.Error _ -> abort_split cbox
    end
  end

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

(* Set / update the terminal state of a found T-node for a key ending at
   its byte.  Returns true when a new key came into existence. *)
let set_terminal_t trie cbox emb_chain t value =
  let buf = cbox.buf in
  match (Node.typ_of_flag t.Records.t_flag, value) with
  | Node.Leaf_value, Some v ->
      Records.write_value buf t.Records.t_value_pos v;
      false
  | Node.Leaf_value, None | Node.Leaf_no_value, None -> false
  | Node.Inner, None ->
      Bytes.set_uint8 buf t.Records.t_pos
        (Node.with_typ t.Records.t_flag Node.Leaf_no_value);
      true
  | ((Node.Inner | Node.Leaf_no_value) as ty), Some v ->
      guard_emb trie cbox emb_chain Node.value_size;
      let t_rel = t.Records.t_pos - cbox.base in
      Splice.splice cbox ~emb_chain ~at:t.Records.t_head_end ~remove:0
        ~ins:(Encode.value_string v) ~keep_at:false;
      let p = cbox.base + t_rel in
      Bytes.set_uint8 cbox.buf p
        (Node.with_typ (Bytes.get_uint8 cbox.buf p) Node.Leaf_value);
      ty = Node.Inner
  | Node.Invalid, _ ->
      Hyperion_error.fail
        (Hyperion_error.Chunk_corrupt
           "set_terminal: invalid node type bits in live record")

let set_terminal_s trie cbox emb_chain s value =
  let buf = cbox.buf in
  match (Node.typ_of_flag s.Records.s_flag, value) with
  | Node.Leaf_value, Some v ->
      Records.write_value buf s.Records.s_value_pos v;
      false
  | Node.Leaf_value, None | Node.Leaf_no_value, None -> false
  | Node.Inner, None ->
      Bytes.set_uint8 buf s.Records.s_pos
        (Node.with_typ s.Records.s_flag Node.Leaf_no_value);
      true
  | ((Node.Inner | Node.Leaf_no_value) as ty), Some v ->
      guard_emb trie cbox emb_chain Node.value_size;
      let s_rel = s.Records.s_pos - cbox.base in
      let at =
        s.Records.s_pos + Encode.head_frag_size s.Records.s_flag
        (* the value field sits right after flag/key, before the child *)
      in
      Splice.splice cbox ~emb_chain ~at ~remove:0 ~ins:(Encode.value_string v)
        ~keep_at:false;
      let p = cbox.base + s_rel in
      Bytes.set_uint8 cbox.buf p
        (Node.with_typ (Bytes.get_uint8 cbox.buf p) Node.Leaf_value);
      ty = Node.Inner
  | Node.Invalid, _ ->
      Hyperion_error.fail
        (Hyperion_error.Chunk_corrupt
           "set_terminal: invalid node type bits in live record")

(* Attach a child body (suffix continuation) to an S-node that has none. *)
let attach_child trie cbox emb_chain key value level s =
  let len = String.length key in
  let suffix = String.sub key (level + 2) (len - level - 2) in
  let _, dry = Encode.make_child ~dry:true trie suffix value in
  guard_emb trie cbox emb_chain (String.length dry);
  let kind, body = Encode.make_child trie suffix value in
  let s_rel = s.Records.s_pos - cbox.base in
  Splice.splice cbox ~emb_chain ~at:s.Records.s_end ~remove:0 ~ins:body
    ~keep_at:false;
  let p = cbox.base + s_rel in
  Bytes.set_uint8 cbox.buf p
    (Node.with_child (Bytes.get_uint8 cbox.buf p) kind);
  true

(* The found S-node has a path-compressed child: update it in place when
   the suffix matches, otherwise burst it into an embedded container and
   restart (the paper's recursive PC transformation). *)
let put_pc trie cbox emb_chain key value level s =
  let buf = cbox.buf in
  let pc = Records.parse_pc buf s.Records.s_head_end in
  if pc_matches buf pc key (level + 2) then begin
    match (pc.Records.pc_value_pos >= 0, value) with
    | true, Some v ->
        Records.write_value buf pc.Records.pc_value_pos v;
        false
    | true, None | false, None -> false
    | false, Some v ->
        guard_emb trie cbox emb_chain Node.value_size;
        let pc_rel = pc.Records.pc_pos - cbox.base in
        Splice.splice cbox ~emb_chain
          ~at:(pc.Records.pc_pos + 1)
          ~remove:0 ~ins:(Encode.value_string v) ~keep_at:false;
        let p = cbox.base + pc_rel in
        Bytes.set_uint8 cbox.buf p (Bytes.get_uint8 cbox.buf p lor 0x80);
        false
  end
  else begin
    let old_suffix =
      Bytes.sub_string buf pc.Records.pc_suffix_pos pc.Records.pc_suffix_len
    in
    let old_value =
      if pc.Records.pc_value_pos >= 0 then
        Some (Records.read_value buf pc.Records.pc_value_pos)
      else None
    in
    let content = Encode.region_for trie old_suffix old_value in
    let embeds = 1 + String.length content <= emb_budget trie in
    let body_len = if embeds then 1 + String.length content else Hp.byte_size in
    let pc_size = pc.Records.pc_end - pc.Records.pc_pos in
    guard_emb trie cbox emb_chain (body_len - pc_size);
    let kind, body, undo =
      if embeds then
        ( Node.Child_embedded,
          String.make 1 (Char.chr (1 + String.length content)) ^ content,
          fun () -> () )
      else
        let hp = Splice.new_container trie content in
        (Node.Child_hp, Encode.hp_body hp, fun () -> Memman.free trie.mm hp)
    in
    let s_rel = s.Records.s_pos - cbox.base in
    (try
       Splice.splice cbox ~emb_chain ~at:pc.Records.pc_pos ~remove:pc_size
         ~ins:body ~keep_at:false
     with e ->
       undo ();
       raise e);
    let p = cbox.base + s_rel in
    Bytes.set_uint8 cbox.buf p
      (Node.with_child (Bytes.get_uint8 cbox.buf p) kind);
    raise Restart
  end

(* Insert a fresh S-node (with its whole child chain) under a found T. *)
let insert_s trie cbox emb_chain key value level ~k1 ~at ~prev ~succ =
  let prev = if trie.cfg.delta_encoding then prev else -1 in
  let len = String.length key in
  let slast = level + 2 = len in
  let typ = if slast then typ_for value else Node.Inner in
  let sval = if slast then value else None in
  let head kind = Encode.s_record ~prev_key:prev ~key:k1 ~typ ~value:sval ~child:kind in
  let frag_info =
    match succ with
    | Some s2 ->
        let frag, _ =
          Encode.re_encode_head cbox.buf s2.Records.s_pos ~key:s2.Records.s_key
            ~new_prev:(if trie.cfg.delta_encoding then k1 else -1)
        in
        Some (s2, frag)
    | None -> None
  in
  let dry_body_len =
    if slast then 0
    else
      let _, b =
        Encode.make_child ~dry:true trie
          (String.sub key (level + 2) (len - level - 2))
          value
      in
      String.length b
  in
  let frag_growth =
    match frag_info with
    | Some (s2, frag) ->
        String.length frag - Encode.head_frag_size s2.Records.s_flag
    | None -> 0
  in
  guard_emb trie cbox emb_chain
    (String.length (head Node.No_child) + dry_body_len + frag_growth);
  let kind, body =
    if slast then (Node.No_child, "")
    else
      Encode.make_child trie (String.sub key (level + 2) (len - level - 2)) value
  in
  let at, remove, ins =
    match frag_info with
    | Some (s2, frag) ->
        ( s2.Records.s_pos,
          Encode.head_frag_size s2.Records.s_flag,
          head kind ^ body ^ frag )
    | None -> (at, 0, head kind ^ body)
  in
  Splice.splice cbox ~emb_chain ~at ~remove ~ins ~keep_at:false

(* Insert a fresh T-node record (with S-child chain when the key goes on). *)
let insert_t trie cbox emb_chain key value level ~k0 ~at ~prev ~succ =
  let prev = if trie.cfg.delta_encoding then prev else -1 in
  let len = String.length key in
  let last = level = len - 1 in
  let t_head =
    Encode.t_record ~prev_key:prev ~key:k0
      ~typ:(if last then typ_for value else Node.Inner)
      ~value:(if last then value else None)
  in
  let s_part dry =
    if last then ""
    else begin
      let k1 = kb key (level + 1) in
      let slast = level + 2 = len in
      let kind, body =
        if slast then (Node.No_child, "")
        else
          Encode.make_child ~dry trie
            (String.sub key (level + 2) (len - level - 2))
            value
      in
      Encode.s_record ~prev_key:(-1) ~key:k1
        ~typ:(if slast then typ_for value else Node.Inner)
        ~value:(if slast then value else None)
        ~child:kind
      ^ body
    end
  in
  let frag_info =
    match succ with
    | Some t2 ->
        let frag, d =
          Encode.re_encode_head cbox.buf t2.Records.t_pos ~key:t2.Records.t_key
            ~new_prev:(if trie.cfg.delta_encoding then k0 else -1)
        in
        Some (t2, frag, d)
    | None -> None
  in
  let frag_growth =
    match frag_info with
    | Some (t2, frag, _) ->
        String.length frag - Encode.head_frag_size t2.Records.t_flag
    | None -> 0
  in
  guard_emb trie cbox emb_chain
    (String.length t_head + String.length (s_part true) + frag_growth);
  let body = s_part false in
  let at_rel = at - cbox.base in
  (* keep_at only applies to T-sibling inserts in the top region: inside an
     embedded region the insert sits within some top-level T's S-subtree,
     so top-level jump successors pointing exactly at [at] must shift. *)
  let keep_at = emb_chain = [] in
  (match frag_info with
  | Some (t2, frag, d) ->
      Splice.splice cbox ~emb_chain ~at:t2.Records.t_pos
        ~remove:(Encode.head_frag_size t2.Records.t_flag)
        ~ins:(t_head ^ body ^ frag) ~keep_at;
      if d <> 0 then
        Splice.adjust_record_offsets cbox.buf
          (cbox.base + at_rel + String.length t_head + String.length body)
          d
  | None ->
      Splice.splice cbox ~emb_chain ~at ~remove:0 ~ins:(t_head ^ body)
        ~keep_at)

(* ------------------------------------------------------------------ *)
(* put                                                                 *)
(* ------------------------------------------------------------------ *)

let rec put_container trie key value level hp where =
  if Fault.check (Memman.fault trie.mm) Fault.Chunk_corrupt then
    Hyperion_error.fail
      (Hyperion_error.Chunk_corrupt
         (Printf.sprintf "injected at key level %d" level));
  let cbox = Splice.open_container trie hp ~tkey:(kb key level) ~where in
  if should_split trie cbox && try_split trie cbox then begin
    Telemetry.mark Telemetry.Path.container_split;
    if Telemetry.enabled () then Telemetry.Counter.incr c_split;
    raise Restart
  end;
  put_region trie cbox (top_region cbox.buf cbox.base) [] key value level

and put_region trie cbox region emb_chain key value level =
  let len = String.length key in
  let k0 = kb key level in
  let traversed = ref 0 in
  let scanned = ref 0 in
  let post_insert added =
    (* Jump-structure upkeep is best-effort: its splices abort cleanly
       before mutating on allocation failure, and a container without a
       refreshed jump table is merely slower, not wrong.  The insert that
       just succeeded must not be reported as failed. *)
    (if region.top then
       try
         maintain_t trie cbox k0 ~stale:(!scanned > 24) 0;
         if !traversed >= trie.cfg.container_jt_threshold then
           maintain_cjt cbox
       with Hyperion_error.Error _ -> ());
    added
  in
  match Scan.find_t cbox region k0 ~traversed with
  | Scan.T_insert { t_at; t_prev_key; t_succ } ->
      insert_t trie cbox emb_chain key value level ~k0 ~at:t_at ~prev:t_prev_key
        ~succ:t_succ;
      (* a new top-region T-node must be visible to the negative-lookup
         tag before the put is acknowledged (embedded regions untagged) *)
      if region.top then Tag.add cbox.buf cbox.base k0;
      post_insert true
  | Scan.T_found (t, _) -> (
      if level = len - 1 then begin
        let added = set_terminal_t trie cbox emb_chain t value in
        if added then ignore (post_insert true);
        added
      end
      else
        let k1 = kb key (level + 1) in
        match Scan.find_s ~scanned cbox region t k1 with
        | Scan.S_insert { s_at; s_prev_key; s_succ } ->
            insert_s trie cbox emb_chain key value level ~k1 ~at:s_at
              ~prev:s_prev_key ~succ:s_succ;
            post_insert true
        | Scan.S_found (s, _) -> (
            if level + 2 = len then begin
              let added = set_terminal_s trie cbox emb_chain s value in
              if added then ignore (post_insert true);
              added
            end
            else
              match Node.child_of_flag s.Records.s_flag with
              | Node.No_child ->
                  let added = attach_child trie cbox emb_chain key value level s in
                  post_insert added
              | Node.Child_pc ->
                  let added = put_pc trie cbox emb_chain key value level s in
                  if added then ignore (post_insert true);
                  added
              | Node.Child_embedded ->
                  (* The paper ejects embedded containers once the parent
                     container outgrows its limit; doing it when the path
                     actually touches the embedded child keeps puts free of
                     full-container sweeps. *)
                  if
                    emb_chain = []
                    && Splice.container_size cbox
                       > trie.cfg.embedded_eject_parent_limit
                  then begin
                    eject trie cbox [] s.Records.s_pos s.Records.s_head_end;
                    raise Restart
                  end
                  else
                    put_region trie cbox
                      (emb_region cbox.buf s.Records.s_head_end)
                      (emb_chain @ [ (s.Records.s_pos, s.Records.s_head_end) ])
                      key value (level + 2)
              | Node.Child_hp ->
                  put_container trie key value (level + 2)
                    (Hp.read cbox.buf s.Records.s_head_end)
                    (W_parent (cbox.buf, s.Records.s_head_end))))

let restart_budget = 256

let put_unchecked trie key value =
  if Hp.is_null trie.root then begin
    let content = Encode.region_for trie key value in
    trie.root <- Splice.new_container trie content;
    true
  end
  else begin
    let rec attempt n =
      if n > restart_budget then
        Hyperion_error.fail
          (Hyperion_error.Restart_budget_exceeded restart_budget)
      else if Fault.check (Memman.fault trie.mm) Fault.Restart_storm then
        attempt (n + 1)
      else
        try put_container trie key value 0 trie.root W_root
        with Restart -> attempt (n + 1)
    in
    attempt 0
  end

let put trie key value =
  check_key key;
  put_unchecked trie key value

let key_error key =
  let len = String.length key in
  if len = 0 then Some Hyperion_error.Empty_key
  else if len > max_key_len then Some (Hyperion_error.Key_too_long len)
  else None

let put_checked trie key value =
  match key_error key with
  | Some e -> Error e
  | None -> (
      try Ok (put_unchecked trie key value) with Hyperion_error.Error e -> Error e)

(* ------------------------------------------------------------------ *)
(* delete + cleanup                                                    *)
(* ------------------------------------------------------------------ *)

(* Remove the whole (childless) T-record, re-encoding the next sibling's
   delta against the removed record's predecessor. *)
let remove_record_t cbox region emb_chain t t_prev =
  let buf = cbox.buf in
  let succ_pos = t.Records.t_head_end in
  if succ_pos >= region.re then
    Splice.splice cbox ~emb_chain ~at:t.Records.t_pos
      ~remove:(succ_pos - t.Records.t_pos)
      ~ins:"" ~keep_at:false
  else begin
    let succ = Records.parse_t buf succ_pos ~prev_key:t.Records.t_key in
    let frag, d =
      Encode.re_encode_head buf succ_pos ~key:succ.Records.t_key
        ~new_prev:t_prev
    in
    let t_rel = t.Records.t_pos - cbox.base in
    Splice.splice cbox ~emb_chain ~at:t.Records.t_pos
      ~remove:
        (succ_pos - t.Records.t_pos
        + Encode.head_frag_size succ.Records.t_flag)
      ~ins:frag ~keep_at:false;
    if d <> 0 then Splice.adjust_record_offsets cbox.buf (cbox.base + t_rel) d
  end

let remove_record_s cbox region emb_chain t s s_prev =
  let buf = cbox.buf in
  let children_end = Scan.t_children_end cbox region t in
  let succ_pos = s.Records.s_end in
  if succ_pos >= children_end then
    Splice.splice cbox ~emb_chain ~at:s.Records.s_pos
      ~remove:(succ_pos - s.Records.s_pos)
      ~ins:"" ~keep_at:false
  else begin
    let succ = Records.parse_s buf succ_pos ~prev_key:s.Records.s_key in
    let frag, _ =
      Encode.re_encode_head buf succ_pos ~key:succ.Records.s_key
        ~new_prev:s_prev
    in
    Splice.splice cbox ~emb_chain ~at:s.Records.s_pos
      ~remove:
        (succ_pos - s.Records.s_pos
        + Encode.head_frag_size succ.Records.s_flag)
      ~ins:frag ~keep_at:false
  end

let remove_terminal_t cbox region emb_chain t t_prev =
  match Node.typ_of_flag t.Records.t_flag with
  | Node.Inner | Node.Invalid -> false
  | (Node.Leaf_no_value | Node.Leaf_value) as ty ->
      let has_children = Scan.t_children_end cbox region t > t.Records.t_head_end in
      if has_children then begin
        if ty = Node.Leaf_value then begin
          let t_rel = t.Records.t_pos - cbox.base in
          Splice.splice cbox ~emb_chain ~at:t.Records.t_value_pos
            ~remove:Node.value_size ~ins:"" ~keep_at:false;
          let p = cbox.base + t_rel in
          Bytes.set_uint8 cbox.buf p
            (Node.with_typ (Bytes.get_uint8 cbox.buf p) Node.Inner)
        end
        else
          Bytes.set_uint8 cbox.buf t.Records.t_pos
            (Node.with_typ t.Records.t_flag Node.Inner);
        true
      end
      else begin
        remove_record_t cbox region emb_chain t t_prev;
        true
      end

let remove_terminal_s cbox region emb_chain t s s_prev =
  match Node.typ_of_flag s.Records.s_flag with
  | Node.Inner | Node.Invalid -> false
  | (Node.Leaf_no_value | Node.Leaf_value) as ty ->
      let has_child = Node.child_of_flag s.Records.s_flag <> Node.No_child in
      if has_child then begin
        if ty = Node.Leaf_value then begin
          let s_rel = s.Records.s_pos - cbox.base in
          Splice.splice cbox ~emb_chain ~at:s.Records.s_value_pos
            ~remove:Node.value_size ~ins:"" ~keep_at:false;
          let p = cbox.base + s_rel in
          Bytes.set_uint8 cbox.buf p
            (Node.with_typ (Bytes.get_uint8 cbox.buf p) Node.Inner)
        end
        else
          Bytes.set_uint8 cbox.buf s.Records.s_pos
            (Node.with_typ s.Records.s_flag Node.Inner);
        true
      end
      else begin
        remove_record_s cbox region emb_chain t s s_prev;
        true
      end

let remove_pc cbox emb_chain s pc =
  let s_rel = s.Records.s_pos - cbox.base in
  Splice.splice cbox ~emb_chain ~at:pc.Records.pc_pos
    ~remove:(pc.Records.pc_end - pc.Records.pc_pos)
    ~ins:"" ~keep_at:false;
  let p = cbox.base + s_rel in
  Bytes.set_uint8 cbox.buf p
    (Node.with_child (Bytes.get_uint8 cbox.buf p) Node.No_child);
  true

let rec delete_container trie key level hp where =
  let cbox = Splice.open_container trie hp ~tkey:(kb key level) ~where in
  delete_region trie cbox (top_region cbox.buf cbox.base) [] key level

and delete_region trie cbox region emb_chain key level =
  let len = String.length key in
  let traversed = ref 0 in
  match Scan.find_t ~use_jumps:false cbox region (kb key level) ~traversed with
  | Scan.T_insert _ -> false
  | Scan.T_found (t, t_prev) -> (
      if level = len - 1 then
        remove_terminal_t cbox region emb_chain t t_prev
      else
        match Scan.find_s ~use_jumps:false cbox region t (kb key (level + 1)) with
        | Scan.S_insert _ -> false
        | Scan.S_found (s, s_prev) -> (
            if level + 2 = len then
              remove_terminal_s cbox region emb_chain t s s_prev
            else
              match Node.child_of_flag s.Records.s_flag with
              | Node.No_child -> false
              | Node.Child_pc ->
                  let pc = Records.parse_pc cbox.buf s.Records.s_head_end in
                  if pc_matches cbox.buf pc key (level + 2) then
                    remove_pc cbox emb_chain s pc
                  else false
              | Node.Child_embedded ->
                  delete_region trie cbox
                    (emb_region cbox.buf s.Records.s_head_end)
                    (emb_chain @ [ (s.Records.s_pos, s.Records.s_head_end) ])
                    key (level + 2)
              | Node.Child_hp ->
                  delete_container trie key (level + 2)
                    (Hp.read cbox.buf s.Records.s_head_end)
                    (W_parent (cbox.buf, s.Records.s_head_end))))

(* Is the container behind [hp] devoid of records (all slots, if chained)? *)
let container_empty trie hp =
  if Memman.is_chained trie.mm hp then begin
    let empty = ref true in
    for slot = 0 to 7 do
      match Memman.ceb_slot trie.mm hp ~slot with
      | Some (buf, off, _) ->
          if Layout.content_end buf off > Layout.payload_start buf off then
            empty := false
      | None -> ()
    done;
    !empty
  end
  else
    let buf, base = Memman.resolve trie.mm hp in
    Layout.content_end buf base <= Layout.payload_start buf base

(* One bottom-up cleanup action along the deleted key's path; true when
   something was removed (caller loops until stable). *)
let rec cleanup_container trie key level hp where =
  let cbox = Splice.open_container trie hp ~tkey:(kb key level) ~where in
  cleanup_region trie cbox (top_region cbox.buf cbox.base) [] key level

and cleanup_region trie cbox region emb_chain key level =
  let len = String.length key in
  if level >= len - 1 then false
  else begin
    let traversed = ref 0 in
    match Scan.find_t ~use_jumps:false cbox region (kb key level) ~traversed with
    | Scan.T_insert _ -> false
    | Scan.T_found (t, t_prev) -> (
        match Scan.find_s ~use_jumps:false cbox region t (kb key (level + 1)) with
        | Scan.S_insert _ ->
            (* No S-children left and no terminal value: dead inner T. *)
            if
              Node.typ_of_flag t.Records.t_flag = Node.Inner
              && Scan.t_children_end cbox region t = t.Records.t_head_end
            then begin
              remove_record_t cbox region emb_chain t t_prev;
              true
            end
            else false
        | Scan.S_found (s, s_prev) -> (
            let dead_s () =
              if
                Node.typ_of_flag s.Records.s_flag = Node.Inner
                && Node.child_of_flag s.Records.s_flag = Node.No_child
              then begin
                remove_record_s cbox region emb_chain t s s_prev;
                true
              end
              else false
            in
            if level + 2 >= len then dead_s ()
            else
              match Node.child_of_flag s.Records.s_flag with
              | Node.No_child -> dead_s ()
              | Node.Child_pc -> false
              | Node.Child_embedded ->
                  let r = emb_region cbox.buf s.Records.s_head_end in
                  if
                    cleanup_region trie cbox r
                      (emb_chain @ [ (s.Records.s_pos, s.Records.s_head_end) ])
                      key (level + 2)
                  then true
                  else if r.re <= r.rb then begin
                    (* Empty embedded container: splice it out. *)
                    let s_rel = s.Records.s_pos - cbox.base in
                    Splice.splice cbox ~emb_chain ~at:s.Records.s_head_end
                      ~remove:(Layout.emb_total_size cbox.buf s.Records.s_head_end)
                      ~ins:"" ~keep_at:false;
                    let p = cbox.base + s_rel in
                    Bytes.set_uint8 cbox.buf p
                      (Node.with_child (Bytes.get_uint8 cbox.buf p)
                         Node.No_child);
                    true
                  end
                  else false
              | Node.Child_hp ->
                  let child = Hp.read cbox.buf s.Records.s_head_end in
                  if
                    cleanup_container trie key (level + 2) child
                      (W_parent (cbox.buf, s.Records.s_head_end))
                  then true
                  else if container_empty trie child then begin
                    Memman.free trie.mm child;
                    let s_rel = s.Records.s_pos - cbox.base in
                    Splice.splice cbox ~emb_chain ~at:s.Records.s_head_end
                      ~remove:Hp.byte_size ~ins:"" ~keep_at:false;
                    let p = cbox.base + s_rel in
                    Bytes.set_uint8 cbox.buf p
                      (Node.with_child (Bytes.get_uint8 cbox.buf p)
                         Node.No_child);
                    true
                  end
                  else false))
  end

let delete trie key =
  check_key key;
  if Hp.is_null trie.root then false
  else begin
    let removed = delete_container trie key 0 trie.root W_root in
    if removed then begin
      while
        (not (Hp.is_null trie.root))
        && cleanup_container trie key 0 trie.root W_root
      do
        ()
      done;
      if (not (Hp.is_null trie.root)) && container_empty trie trie.root then begin
        Memman.free trie.mm trie.root;
        trie.root <- Hp.null
      end
    end;
    removed
  end
