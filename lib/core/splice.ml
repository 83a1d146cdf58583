open Types

let round32 n = (n + 31) / 32 * 32

(* A CEB slot the memory manager itself routed us to must resolve; when it
   does not, the chunk metadata is corrupt (seen in practice when WAL replay
   feeds a damaged image).  Report where instead of [Assert_failure]. *)
let corrupt_slot what hp slot =
  Hyperion_error.fail
    (Hyperion_error.Chunk_corrupt
       (Format.asprintf "%s: CEB slot %d unresolvable in container %a" what
          slot Hp.pp hp))

let open_container trie hp ~tkey ~where =
  if Memman.is_chained trie.mm hp then begin
    let slot = Memman.ceb_resolve_key trie.mm hp ~tkey in
    match Memman.ceb_slot trie.mm hp ~slot with
    | Some (buf, off, _) -> { trie; hp; slot; where = W_slot; buf; base = off }
    | None -> corrupt_slot "open_container" hp slot
  end
  else
    let buf, base = Memman.resolve trie.mm hp in
    { trie; hp; slot = -1; where; buf; base }

let refresh cbox =
  if cbox.slot >= 0 then begin
    match Memman.ceb_slot cbox.trie.mm cbox.hp ~slot:cbox.slot with
    | Some (buf, off, _) ->
        cbox.buf <- buf;
        cbox.base <- off
    | None -> corrupt_slot "refresh" cbox.hp cbox.slot
  end
  else begin
    let buf, base = Memman.resolve cbox.trie.mm cbox.hp in
    cbox.buf <- buf;
    cbox.base <- base
  end

(* Write a fresh container header at [base] for [len] content bytes
   behind room for a container jump table of [jump_levels] levels.
   Chunks come zeroed from the allocator, so the table reads empty until
   the caller fills it; the tag byte is left for the caller to
   recompute. *)
let write_header buf base ~size ~jump_levels len =
  Layout.write_header buf base ~size
    ~free:(size - Layout.header_size - (7 * jump_levels * Layout.jt_entry_size) - len)
    ~jump_levels ~split_delay:0

let image_size ~jump_levels len =
  let size =
    max 32
      (round32
         (Layout.header_size + (7 * jump_levels * Layout.jt_entry_size) + len))
  in
  if size > Layout.max_container_size then
    Hyperion_error.fail Hyperion_error.Container_overflow;
  size

let alloc_container ?(jump_levels = 0) trie len =
  let size = image_size ~jump_levels len in
  let hp = Memman.alloc trie.mm size in
  let buf, base = Memman.resolve trie.mm hp in
  write_header buf base ~size ~jump_levels len;
  hp

let alloc_slot ?(jump_levels = 0) trie ceb slot len =
  let size = image_size ~jump_levels len in
  Memman.ceb_set_slot trie.mm ceb ~slot size;
  match Memman.ceb_slot trie.mm ceb ~slot with
  | Some (buf, off, _) ->
      write_header buf off ~size ~jump_levels len;
      (buf, off)
  | None ->
      Hyperion_error.fail
        (Hyperion_error.Chunk_corrupt
           (Format.asprintf
              "alloc_slot: CEB slot %d vanished after ceb_set_slot in \
               container %a"
              slot Hp.pp ceb))

let new_container trie content =
  let hp = alloc_container trie (String.length content) in
  let buf, base = Memman.resolve trie.mm hp in
  Bytes.blit_string content 0 buf
    (base + Layout.payload_start buf base)
    (String.length content);
  (* the recycled chunk's tag byte is stale garbage until this *)
  Tag.recompute buf base;
  hp

let write_slot trie ceb slot content =
  let buf, base = alloc_slot trie ceb slot (String.length content) in
  Bytes.blit_string content 0 buf
    (base + Layout.payload_start buf base)
    (String.length content);
  (* Callers recompute the tag byte once the content is fully
     consistent — a split's right piece still needs its jump offsets
     adjusted, and recycled chunks hold a stale tag until then. *)
  (buf, base)

let container_size cbox = Layout.read_size cbox.buf cbox.base

(* Re-point the stored HP after a plain-container reallocation moved it. *)
let patch_where cbox new_hp =
  match cbox.where with
  | W_root -> cbox.trie.root <- new_hp
  | W_parent (pbuf, ppos) -> Hp.write pbuf ppos new_hp
  | W_slot ->
      (* slot reallocation keeps the CEB HP, so no patching is ever needed *)
      corrupt_slot "patch_where" cbox.hp cbox.slot

(* Resize the open container to [new_size] total bytes, preserving content
   (including the header, which the caller rewrites afterwards). *)
let resize cbox new_size =
  if new_size > Layout.max_container_size then
    Hyperion_error.fail Hyperion_error.Container_overflow;
  if cbox.slot >= 0 then
    Memman.ceb_realloc_slot cbox.trie.mm cbox.hp ~slot:cbox.slot new_size
  else begin
    let new_hp = Memman.realloc cbox.trie.mm cbox.hp new_size in
    if new_hp <> cbox.hp then begin
      patch_where cbox new_hp;
      cbox.hp <- new_hp
    end
  end;
  refresh cbox

(* Offset-patch rules for a splice replacing [remove] bytes at [at] with a
   fragment whose length differs by [n].  Positions are container-relative
   here. *)

let patch_js_target ~at ~remove ~n ~keep_at target =
  if target < at then target
  else if remove > 0 && target < at + remove then at
  else if target = at && remove = 0 then if keep_at then at else at + n
  else target + n

(* Jump-table targets name a specific record: entries pointing into a
   removed range are invalidated (offset 0), everything at or past the
   splice point shifts. *)
let patch_jt_target ~at ~remove ~n target =
  if target < at then Some target
  else if remove > 0 && target < at + remove then None
  else Some (target + n)

let adjust_record_offsets buf t_pos d =
  let t = Records.parse_t_known buf t_pos ~key:0 in
  if t.Records.t_js_pos >= 0 then
    Records.write_u16 buf t.Records.t_js_pos
      (Records.read_u16 buf t.Records.t_js_pos + d);
  if t.Records.t_jt_pos >= 0 then
    for i = 0 to Node.jt_entries - 1 do
      let key = Records.jt_key buf t.Records.t_jt_pos i and off = Records.jt_off buf t.Records.t_jt_pos i in
      if off <> 0 then
        Records.jt_set_entry buf t.Records.t_jt_pos i ~key ~off:(off + d)
    done

(* Patch every stored offset whose span crosses the splice point.  Runs on
   the pre-shift layout (after any reallocation, before the tail moves).

   A T-node's jump successor targets its immediate successor sibling and
   its jump-table entries target its own S-children, so only the last
   T-record starting before the splice point can hold a crossing offset —
   every earlier record's targets lie at or before that record's successor,
   which itself starts before the splice point.  The container jump table
   (patched first) lets us land near that record instead of walking the
   whole container. *)
let patch_offsets cbox ~at_rel ~remove ~n ~keep_at =
  let buf = cbox.buf and base = cbox.base in
  (* Container jump table: offsets are container-relative.  Also remember
     the best pre-patch entry at or before the splice point as a walk
     shortcut. *)
  let cnt = Layout.jt_count buf base in
  let start = ref (Layout.payload_start buf base) in
  for i = 0 to cnt - 1 do
    let key = Layout.jt_key buf base i and off = Layout.jt_off buf base i in
    if off <> 0 then begin
      (* strictly before the splice point: the walk must reach the last
         T-record starting before [at_rel] *)
      if off < at_rel && off > !start then start := off;
      match patch_jt_target ~at:at_rel ~remove ~n off with
      | Some off' ->
          if off' <> off then Layout.jt_write buf base i ~key ~off:off'
      | None -> Layout.jt_write buf base i ~key ~off:0
    end
  done;
  (* Find the last T-record starting before the splice point. *)
  let content_end = Layout.content_end buf base in
  let limit_abs = base + min at_rel content_end in
  let region_end_abs = base + content_end in
  let pos = ref (base + !start) and last = ref (-1) in
  while !pos < limit_abs do
    let t = Records.parse_t_known buf !pos ~key:0 in
    last := !pos;
    pos := Records.next_t_pos buf t ~limit:region_end_abs
  done;
  if !last >= 0 then begin
    let t = Records.parse_t_known buf !last ~key:0 in
    if t.Records.t_js_pos >= 0 then begin
      let off = Records.read_u16 buf t.Records.t_js_pos in
      let target_rel = t.Records.t_pos - base + off in
      let target_rel' =
        patch_js_target ~at:at_rel ~remove ~n ~keep_at target_rel
      in
      if target_rel' <> target_rel then
        Records.write_u16 buf t.Records.t_js_pos
          (target_rel' - (t.Records.t_pos - base))
    end;
    if t.Records.t_jt_pos >= 0 then
      for i = 0 to Node.jt_entries - 1 do
        let key = Records.jt_key buf t.Records.t_jt_pos i and off = Records.jt_off buf t.Records.t_jt_pos i in
        if off <> 0 then begin
          let target_rel = t.Records.t_pos - base + off in
          match patch_jt_target ~at:at_rel ~remove ~n target_rel with
          | Some tr when tr <> target_rel ->
              Records.jt_set_entry buf t.Records.t_jt_pos i ~key
                ~off:(tr - (t.Records.t_pos - base))
          | Some _ -> ()
          | None -> Records.jt_set_entry buf t.Records.t_jt_pos i ~key ~off:0
        end
      done
  end

let splice cbox ~emb_chain ~at ~remove ~ins ~keep_at =
  let ins_len = String.length ins in
  let n = ins_len - remove in
  let at_rel = at - cbox.base in
  let emb_rel = List.map (fun (_, e) -> e - cbox.base) emb_chain in
  let size = Layout.read_size cbox.buf cbox.base in
  let content = Layout.content_end cbox.buf cbox.base in
  assert (at_rel >= Layout.payload_start cbox.buf cbox.base || remove = 0);
  assert (at_rel + remove <= content);
  let new_content = content + n in
  (* Grow first so the shift happens in the final buffer. *)
  if n > 0 && size - content < n then begin
    let grown = round32 new_content in
    resize cbox grown;
    Layout.set_size cbox.buf cbox.base grown
  end;
  patch_offsets cbox ~at_rel ~remove ~n ~keep_at;
  let buf = cbox.buf and base = cbox.base in
  if n <> 0 then
    Bytes.blit buf (base + at_rel + remove) buf
      (base + at_rel + ins_len)
      (content - at_rel - remove);
  Bytes.blit_string ins 0 buf (base + at_rel) ins_len;
  if n < 0 then
    Bytes.fill buf (base + new_content) (content - new_content) '\000';
  (* Enclosing embedded containers grow/shrink with their contents. *)
  List.iter
    (fun e_rel ->
      let pos = base + e_rel in
      Layout.set_emb_total_size buf pos (Layout.emb_total_size buf pos + n))
    emb_rel;
  (* Header: keep the free tail small; shrink when deletions accumulate. *)
  let cur_size = Layout.read_size buf base in
  let free = cur_size - new_content in
  assert (free >= 0);
  if free > 255 then begin
    let shrunk = round32 new_content in
    (* The shrink may need a fresh smaller chunk.  If the allocator cannot
       provide one (saturation, injected fault), shrink *logically* only:
       the size field drops to [shrunk] inside the oversized chunk (the
       vacated tail is already zeroed), so the container stays consistent
       and the free field stays in its 8-bit range.  No state is lost. *)
    (try resize cbox shrunk with Hyperion_error.Error _ -> ());
    let buf = cbox.buf and base = cbox.base in
    Layout.write_header buf base ~size:shrunk ~free:(shrunk - new_content)
      ~jump_levels:(Layout.read_jump_levels buf base)
      ~split_delay:(Layout.read_split_delay buf base)
  end
  else begin
    Layout.write_header buf base ~size:cur_size ~free
      ~jump_levels:(Layout.read_jump_levels buf base)
      ~split_delay:(Layout.read_split_delay buf base)
  end
