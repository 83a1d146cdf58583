open Types

(* Jump-table effectiveness: a "hit" is a consultation that let the scan
   start from a jump target, a "miss" one where a table was present but
   yielded no usable entry, so the scan fell back to the region head.
   Scans with no table to consult (the overwhelmingly common case on
   small nodes) are not counted — they are not consultations, and the
   hit ratio would be meaningless (and the instrumentation cost ~3x
   higher) if they were.  Both container-level (paper Fig. 9) and
   T-node-level tables feed the same family. *)
let c_jt_hit =
  Telemetry.Counter.make "hyperion_jump_table_total"
    ~labels:[ ("result", "hit") ]
    ~help:"Jump-table consultations by outcome"

let c_jt_miss =
  Telemetry.Counter.make "hyperion_jump_table_total"
    ~labels:[ ("result", "miss") ]

(* Innermost-loop instrumentation (~14 firings per put on a 300k-key
   store): the fused mark+incr keeps it to one core lookup per firing. *)
let note_jt hit =
  if hit then Telemetry.mark_incr Telemetry.Path.jt_hit c_jt_hit
  else Telemetry.mark_incr Telemetry.Path.jt_miss c_jt_miss

type t_result =
  | T_found of Records.tnode * int
  | T_insert of {
      t_at : int;
      t_prev_key : int;
      t_succ : Records.tnode option;
    }

type s_result =
  | S_found of Records.snode * int
  | S_insert of {
      s_at : int;
      s_prev_key : int;
      s_succ : Records.snode option;
    }

(* Index of the best container-jump-table entry for [k0]: the populated
   entry with the largest key <= k0, the first one on ties (paper: linear
   scan of the entries); -1 when there is none. *)
let cjt_start cbox k0 =
  let buf = cbox.buf and base = cbox.base in
  let best = ref (-1) and best_key = ref (-1) in
  for i = 0 to Layout.jt_count buf base - 1 do
    let key = Layout.jt_key buf base i in
    if key <= k0 && key > !best_key && Layout.jt_off buf base i <> 0 then begin
      best := i;
      best_key := key
    end
  done;
  !best

let find_t ?(use_jumps = true) cbox region k0 ~traversed =
  let buf = cbox.buf in
  let start_pos, start_key =
    if not use_jumps || not region.top then (region.rb, -1)
    else
      let i = cjt_start cbox k0 in
      let pos =
        if i < 0 then max_int else cbox.base + Layout.jt_off buf cbox.base i
      in
      if pos < region.re then begin
        note_jt true;
        (pos, Layout.jt_key buf cbox.base i)
      end
      else begin
        note_jt false;
        (region.rb, -1)
      end
  in
  (* [prev] is the predecessor sibling's key; after a jump the jump target's
     own predecessor is unknown and reported as -1.  [known] is the record's
     key when the jump table supplied it, -1 otherwise. *)
  let rec go pos prev known =
    if pos >= region.re then
      T_insert { t_at = region.re; t_prev_key = prev; t_succ = None }
    else begin
      let t =
        if known >= 0 then Records.parse_t_known buf pos ~key:known
        else Records.parse_t buf pos ~prev_key:prev
      in
      incr traversed;
      if t.Records.t_key = k0 then T_found (t, prev)
      else if t.Records.t_key > k0 then
        T_insert { t_at = pos; t_prev_key = prev; t_succ = Some t }
      else
        go (Records.next_t_pos buf t ~limit:region.re) t.Records.t_key (-1)
    end
  in
  go start_pos (-1) start_key

let t_children_end cbox region t =
  Records.next_t_pos cbox.buf t ~limit:region.re

(* Index of the best T-node jump-table entry for [k1], as [cjt_start]. *)
let tjt_start cbox t k1 =
  let buf = cbox.buf and jt = t.Records.t_jt_pos in
  let best = ref (-1) and best_key = ref (-1) in
  for i = 0 to Node.jt_entries - 1 do
    let key = Records.jt_key buf jt i in
    if key <= k1 && key > !best_key && Records.jt_off buf jt i <> 0 then begin
      best := i;
      best_key := key
    end
  done;
  !best

let find_s ?(use_jumps = true) ?(scanned = ref 0) cbox region t k1 =
  let buf = cbox.buf in
  let s_end = t_children_end cbox region t in
  let start_pos, start_key =
    if not use_jumps || t.Records.t_jt_pos < 0 then (t.Records.t_head_end, -1)
    else
      let i = tjt_start cbox t k1 in
      let jt = t.Records.t_jt_pos in
      let pos =
        if i < 0 then max_int else t.Records.t_pos + Records.jt_off buf jt i
      in
      if pos < s_end then begin
        note_jt true;
        (pos, Records.jt_key buf jt i)
      end
      else begin
        note_jt false;
        (t.Records.t_head_end, -1)
      end
  in
  let rec go pos prev known =
    incr scanned;
    if pos >= s_end then
      S_insert { s_at = s_end; s_prev_key = prev; s_succ = None }
    else begin
      let flag = Bytes.get_uint8 buf pos in
      if flag = 0 || not (Node.is_snode flag) then
        S_insert { s_at = pos; s_prev_key = prev; s_succ = None }
      else
        let s =
          if known >= 0 then Records.parse_s_known buf pos ~key:known
          else Records.parse_s buf pos ~prev_key:prev
        in
        if s.Records.s_key = k1 then S_found (s, prev)
        else if s.Records.s_key > k1 then
          S_insert { s_at = pos; s_prev_key = prev; s_succ = Some s }
        else go s.Records.s_end s.Records.s_key (-1)
    end
  in
  go start_pos (-1) start_key

let count_s_children ?(cap = max_int) cbox region t =
  let buf = cbox.buf in
  let s_end = t_children_end cbox region t in
  let rec go pos acc =
    if acc >= cap || pos >= s_end then acc
    else begin
      let flag = Bytes.get_uint8 buf pos in
      if flag = 0 || not (Node.is_snode flag) then acc
      else go (pos + Records.s_record_size buf pos) (acc + 1)
    end
  in
  go t.Records.t_head_end 0
