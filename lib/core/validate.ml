open Types

type error = { context : string; message : string }

let pp_error fmt e = Format.fprintf fmt "[%s] %s" e.context e.message

type acc = {
  mutable errors : error list;
  mutable visited : int;
  trie : trie;
}

let err acc context fmt =
  Printf.ksprintf
    (fun message -> acc.errors <- { context; message } :: acc.errors)
    fmt

let max_containers = 10_000_000

(* Walk the S-children of a T-record, collecting (key, position); returns
   the end position.  Parsing is defensive: a malformed record aborts the
   walk with an error instead of raising. *)
let rec check_region acc buf ~rb ~re ~top ~ctx =
  let t_positions = ref [] in
  let pos = ref rb and prev = ref (-1) in
  let ok = ref true in
  while !ok && !pos < re do
    let flag = Bytes.get_uint8 buf !pos in
    if flag = 0 then begin
      err acc ctx "invalid (zero) flag byte inside content at +%d" (!pos - rb);
      ok := false
    end
    else if Node.is_snode flag then begin
      err acc ctx "S-node record at T level at +%d" (!pos - rb);
      ok := false
    end
    else begin
      match Records.parse_t buf !pos ~prev_key:!prev with
      | exception Invalid_argument m ->
          err acc ctx "unparsable T record at +%d: %s" (!pos - rb) m;
          ok := false
      | t ->
          if t.Records.t_key <= !prev then begin
            err acc ctx "T keys not ascending at +%d (%d after %d)" (!pos - rb)
              t.Records.t_key !prev;
            ok := false
          end
          else if t.Records.t_key > 255 then begin
            err acc ctx "T key %d out of byte range (bad delta chain)"
              t.Records.t_key;
            ok := false
          end
          else begin
            t_positions := (t.Records.t_key, !pos) :: !t_positions;
            if (not top) && (t.Records.t_js_pos >= 0 || t.Records.t_jt_pos >= 0)
            then
              err acc ctx "jump fields inside an embedded container at +%d"
                (!pos - rb);
            if
              Node.typ_of_flag t.Records.t_flag = Node.Invalid
            then err acc ctx "invalid T type at +%d" (!pos - rb);
            let children_end, s_index =
              check_children acc buf ~t ~re ~ctx
            in
            (* a pure inner T must have children *)
            if
              Node.typ_of_flag t.Records.t_flag = Node.Inner
              && children_end = t.Records.t_head_end
            then err acc ctx "inner T %d has no children" t.Records.t_key;
            (* jump successor must land exactly on the next record *)
            if t.Records.t_js_pos >= 0 then begin
              let off = Records.read_u16 buf t.Records.t_js_pos in
              let target = t.Records.t_pos + off in
              if target <> min re children_end && target <> children_end then
                err acc ctx "T %d jump successor points at +%d, children end +%d"
                  t.Records.t_key (target - rb) (children_end - rb)
            end;
            (* jump-table entries must name existing S records *)
            if t.Records.t_jt_pos >= 0 then
              for i = 0 to Node.jt_entries - 1 do
                let key = Records.jt_key buf t.Records.t_jt_pos i and off = Records.jt_off buf t.Records.t_jt_pos i in
                if off <> 0 then begin
                  let target = t.Records.t_pos + off in
                  match List.assoc_opt target s_index with
                  | Some k when k = key -> ()
                  | Some k ->
                      err acc ctx "T %d jt entry %d: key %d but record has %d"
                        t.Records.t_key i key k
                  | None ->
                      err acc ctx "T %d jt entry %d points at +%d: no S record"
                        t.Records.t_key i (target - rb)
                end
              done;
            pos := children_end;
            prev := t.Records.t_key
          end
    end
  done;
  List.rev !t_positions

(* Check the S-records under [t]; returns (end position, [(abs position,
   key)] index). *)
and check_children acc buf ~t ~re ~ctx =
  let pos = ref t.Records.t_head_end and prev = ref (-1) in
  let index = ref [] in
  let ok = ref true in
  while
    !ok && !pos < re
    &&
    let flag = Bytes.get_uint8 buf !pos in
    flag <> 0 && Node.is_snode flag
  do
    match Records.parse_s buf !pos ~prev_key:!prev with
    | exception Invalid_argument m ->
        err acc ctx "unparsable S record at +%d: %s" !pos m;
        ok := false
    | s ->
        index := (!pos, s.Records.s_key) :: !index;
        if s.Records.s_key <= !prev then begin
          err acc ctx "S keys not ascending under T %d (%d after %d)"
            t.Records.t_key s.Records.s_key !prev;
          ok := false
        end
        else begin
          let styp = Node.typ_of_flag s.Records.s_flag in
          if styp = Node.Invalid then
            err acc ctx "invalid S type under T %d" t.Records.t_key;
          (match Node.child_of_flag s.Records.s_flag with
          | Node.No_child ->
              if styp = Node.Inner then
                err acc ctx "inner S %d/%d without child" t.Records.t_key
                  s.Records.s_key
          | Node.Child_hp ->
              let hp = Hp.read buf s.Records.s_head_end in
              if Hp.is_null hp then
                err acc ctx "null child HP at S %d/%d" t.Records.t_key
                  s.Records.s_key
              else check_child_container acc hp ~ctx
          | Node.Child_embedded ->
              let e_pos = s.Records.s_head_end in
              let size = Layout.emb_total_size buf e_pos in
              if size < 1 then
                err acc ctx "embedded container with zero size at S %d/%d"
                  t.Records.t_key s.Records.s_key
              else
                ignore
                  (check_region acc buf ~rb:(e_pos + 1) ~re:(e_pos + size)
                     ~top:false
                     ~ctx:(Printf.sprintf "%s/emb@%d.%d" ctx t.Records.t_key
                             s.Records.s_key))
          | Node.Child_pc ->
              let pc = Records.parse_pc buf s.Records.s_head_end in
              if pc.Records.pc_suffix_len < 1 || pc.Records.pc_suffix_len > 127
              then
                err acc ctx "PC suffix length %d out of [1,127]"
                  pc.Records.pc_suffix_len);
          prev := s.Records.s_key;
          pos := s.Records.s_end
        end
  done;
  (!pos, !index)

and check_top acc buf base ~cap ~ctx =
  let size = Layout.read_size buf base in
  let free = Layout.read_free buf base in
  if size > cap then err acc ctx "header size %d exceeds chunk capacity %d" size cap;
  if size - free < Layout.payload_start buf base then
    err acc ctx "content end before payload start";
  (* zeroed free tail: the scan algorithm depends on it *)
  let content = size - free in
  for i = content to size - 1 do
    if Bytes.get_uint8 buf (base + i) <> 0 then
      err acc ctx "free tail byte at +%d not zero" i
  done;
  let rb = base + Layout.payload_start buf base in
  let re = base + content in
  let ts = check_region acc buf ~rb ~re ~top:true ~ctx in
  (* container jump-table entries must name existing T records *)
  let cnt = Layout.jt_count buf base in
  for i = 0 to cnt - 1 do
    let key = Layout.jt_key buf base i and off = Layout.jt_off buf base i in
    if off <> 0 then begin
      match List.find_opt (fun (_, p) -> p = base + off) ts with
      | Some (k, _) when k = key -> ()
      | Some (k, _) ->
          err acc ctx "container jt entry %d: key %d but T record has %d" i key k
      | None -> err acc ctx "container jt entry %d: no T record at +%d" i off
    end
  done;
  ts

and check_child_container acc hp ~ctx =
  acc.visited <- acc.visited + 1;
  if acc.visited > max_containers then
    err acc ctx "container count exceeds %d (cycle?)" max_containers
  else begin
    let mm = acc.trie.mm in
    if Memman.is_chained mm hp then begin
      let prev_slot_keys = ref (-1) in
      for slot = 0 to 7 do
        match Memman.ceb_slot mm hp ~slot with
        | Some (buf, off, cap) ->
            let ts =
              check_top acc buf off ~cap
                ~ctx:(Printf.sprintf "%s/slot%d" ctx slot)
            in
            (* slot responsibility: T keys at or above the slot's range
               start, and above every key of earlier slots *)
            List.iter
              (fun (k, _) ->
                if k < 32 * slot then
                  err acc ctx "slot %d holds T key %d below its range" slot k;
                if k <= !prev_slot_keys then
                  err acc ctx "slot %d key %d overlaps earlier slot" slot k)
              ts;
            List.iter (fun (k, _) -> prev_slot_keys := max !prev_slot_keys k) ts
        | None -> ()
      done
    end
    else begin
      match Memman.resolve mm hp with
      | exception Invalid_argument m -> err acc ctx "dangling HP: %s" m
      | buf, base ->
          let cap = Memman.capacity mm hp in
          ignore (check_top acc buf base ~cap ~ctx)
    end
  end

let check trie =
  let acc = { errors = []; visited = 0; trie } in
  if not (Hp.is_null trie.root) then check_child_container acc trie.root ~ctx:"root";
  List.rev acc.errors

let check_store store =
  Array.to_list (Store.internal_tries store)
  |> List.concat_map (fun trie -> check trie)
