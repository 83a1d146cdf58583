(* Which T-nodes carry jump fields and which records a jump table names
   (paper Section 3.3).  The put path's upkeep (Ops.maintain_t,
   Ops.refill_tjt, Ops.maintain_cjt) and the bottom-up builder (Bulk)
   both apply exactly these rules. *)

let wants_js (cfg : Config.t) ~children = children >= cfg.js_threshold
let wants_tjt (cfg : Config.t) ~children = children >= cfg.tnode_jt_threshold

(* Jump successors and T-node jump-table entries are 16-bit offsets from
   the T-record, so a T-node spanning more bytes gets neither. *)
let span_fits span = span <= 0xffff

(* Container jump-table levels (7 entries each) a container with
   [t_nodes] top-region T-nodes grows to. *)
let cjt_levels ~t_nodes = min 7 ((t_nodes + 6) / 7)

(* The 15 entries name evenly spaced S-children: all of them when there
   are at most 15, else child [(i + 1) * n / 16] (the first child is where
   an unaided scan starts anyway).  [entry j] is the j-th child's key and
   its offset from the T-record. *)
let fill_tjt buf jt_pos ~n entry =
  for i = 0 to Node.jt_entries - 1 do
    let idx = if n <= Node.jt_entries then i else (i + 1) * n / 16 in
    if idx < n then begin
      let key, off = entry idx in
      Records.jt_set_entry buf jt_pos i ~key ~off
    end
    else Records.jt_set_entry buf jt_pos i ~key:0 ~off:0
  done

(* The container table's entries name evenly spaced top-region T-nodes:
   all of them when they fit, else T-node [e * n / entries].  [entry j] is
   the j-th T-node's key and its container-relative offset. *)
let fill_cjt buf base ~n entry =
  let entries = Layout.jt_count buf base in
  for e = 0 to entries - 1 do
    let idx = if n <= entries then e else e * n / entries in
    if idx < n then begin
      let key, off = entry idx in
      Layout.jt_write buf base e ~key ~off
    end
    else Layout.jt_write buf base e ~key:0 ~off:0
  done
