open Types

(* A strictly ascending run of stored keys with their terminals. *)
type src = { trie : trie; keys : string array; vals : int64 option array }

(* One S-node with its finished child body. *)
type s_ent = {
  sk : int;
  sterm : int64 option option;  (** [Some v]: a key ends at this S-node *)
  kind : Node.child;
  body : string;
}

(* One T-node with its S-children in key order.  [ss] is written only when
   an embedded child is ejected. *)
type group = { tk : int; tterm : int64 option option; ss : s_ent array }

let byte k i = Char.code k.[i]

let typ_of = function
  | None -> Node.Inner
  | Some (Some _) -> Node.Leaf_value
  | Some None -> Node.Leaf_no_value

let value_of = function Some v -> v | None -> None
let prev_of src prev = if src.trie.cfg.delta_encoding then prev else -1

(* ---- sizes and byte images (all encoding goes through Encode) ------- *)

let s_head src ~prev s =
  Encode.s_record ~prev_key:(prev_of src prev) ~key:s.sk ~typ:(typ_of s.sterm)
    ~value:(value_of s.sterm) ~child:s.kind

let t_record src ~prev g =
  Encode.t_record ~prev_key:(prev_of src prev) ~key:g.tk ~typ:(typ_of g.tterm)
    ~value:(value_of g.tterm)

let s_prev g i = if i = 0 then -1 else g.ss.(i - 1).sk
let t_prev groups i = if i = 0 then -1 else groups.(i - 1).tk

let delta src ~prev key = Encode.delta_for ~prev_key:(prev_of src prev) ~key

(* Bytes of the region holding [groups] with no jump fields: the size of
   its embedded form, and about that of its top region. *)
let region_size src groups =
  let total = ref 0 in
  Array.iteri
    (fun i g ->
      total :=
        !total
        + Node.t_head_size
            (Node.t_flag ~typ:(typ_of g.tterm)
               ~delta:(delta src ~prev:(t_prev groups i) g.tk)
               ~js:false ~jt:false);
      Array.iteri
        (fun j s ->
          total :=
            !total
            + Node.s_head_size
                (Node.s_flag ~typ:(typ_of s.sterm)
                   ~delta:(delta src ~prev:(s_prev g j) s.sk)
                   ~child:s.kind)
            + String.length s.body)
        g.ss)
    groups;
  !total

(* The S-children of [g] as bytes, and each one's offset in them. *)
let s_part src g =
  let b = Buffer.create 64 in
  let offs =
    Array.mapi
      (fun j s ->
        let off = Buffer.length b in
        Buffer.add_string b (s_head src ~prev:(s_prev g j) s);
        Buffer.add_string b s.body;
        off)
      g.ss
  in
  (Buffer.contents b, offs)

(* The top-region T-record head of [g] after a sibling keyed [prev], with
   the jump fields the rules grant ([sp, offs]: its S-children). *)
let t_head src ~prev g (sp, offs) =
  let plain = t_record src ~prev g in
  let n = Array.length g.ss in
  let js = Jumps.wants_js src.trie.cfg ~children:n in
  let jt = js && Jumps.wants_tjt src.trie.cfg ~children:n in
  let extra = (if js then Node.js_size else 0) + if jt then Node.jt_size else 0 in
  let head_len = String.length plain + extra in
  if extra = 0 || not (Jumps.span_fits (head_len + String.length sp)) then plain
  else begin
    let flag = Char.code plain.[0] in
    let frag = Encode.head_frag_size flag in
    let h = Bytes.make head_len '\000' in
    Bytes.blit_string plain 0 h 0 frag;
    Bytes.set_uint8 h 0 (Node.with_jt (Node.with_js flag true) jt);
    Records.write_u16 h frag (head_len + String.length sp);
    if jt then
      Jumps.fill_tjt h (frag + Node.js_size) ~n (fun j ->
          (g.ss.(j).sk, head_len + offs.(j)));
    Bytes.blit_string plain frag h (frag + extra) (String.length plain - frag);
    Bytes.to_string h
  end

(* An embedded container: its size byte, then the region's records. *)
let emb_body src groups ~size =
  let b = Buffer.create (1 + size) in
  Buffer.add_char b (Char.chr (1 + size));
  Array.iteri
    (fun i g ->
      Buffer.add_string b (t_record src ~prev:(t_prev groups i) g);
      Buffer.add_string b (fst (s_part src g)))
    groups;
  Buffer.contents b

(* ---- containers ------------------------------------------------------ *)

(* The paper ejects a top region's embedded children once its container
   outgrows [embedded_eject_parent_limit]; puts do it lazily as they pass
   by.  Here the largest are ejected, as puts would (the content moves
   verbatim into a container of its own), until the region fits. *)
let eject_over_limit src groups =
  let limit = src.trie.cfg.embedded_eject_parent_limit in
  let size = ref (region_size src groups) in
  if !size > limit then begin
    let cands = ref [] in
    Array.iteri
      (fun i g ->
        Array.iteri
          (fun j s ->
            if s.kind = Node.Child_embedded then
              cands := (String.length s.body, i, j) :: !cands)
          g.ss)
      groups;
    List.iter
      (fun (len, i, j) ->
        if !size > limit then begin
          let s = groups.(i).ss.(j) in
          let hp = Splice.new_container src.trie (String.sub s.body 1 (len - 1)) in
          groups.(i).ss.(j) <-
            { s with kind = Node.Child_hp; body = Encode.hp_body hp };
          size := !size - (len - Hp.byte_size)
        end)
      (List.stable_sort
         (fun (a, _, _) (b, _, _) -> compare b a)
         (List.rev !cands))
  end

(* The top-region image of groups [a, b): T heads, each T's offset in the
   content, and the content length. *)
type piece = {
  a : int;
  b : int;
  slot : int;
  jump_levels : int;
  heads : string array;
  t_offs : int array;
  len : int;
}

let piece src groups parts ~slot a b =
  let heads =
    Array.init (b - a) (fun i ->
        let prev = if i = 0 then -1 else groups.(a + i - 1).tk in
        t_head src ~prev groups.(a + i) parts.(a + i))
  in
  let t_offs = Array.make (b - a) 0 in
  let len = ref 0 in
  Array.iteri
    (fun i h ->
      t_offs.(i) <- !len;
      len := !len + String.length h + String.length (fst parts.(a + i)))
    heads;
  let count = b - a in
  let jump_levels =
    if count >= src.trie.cfg.container_jt_threshold then
      Jumps.cjt_levels ~t_nodes:count
    else 0
  in
  { a; b; slot; jump_levels; heads; t_offs; len = !len }

(* Spread an oversized container over CEB slots the way repeated
   [Ops.try_split]s would: cut at the 32-key boundary that best balances
   the two pieces (each at least [split_min_piece]); the left piece keeps
   its slot, the right one takes slot [boundary / 32]. *)
let rec split src groups parts ~slot a b acc =
  let cfg = src.trie.cfg in
  let p = piece src groups parts ~slot a b in
  let size =
    Splice.round32
      (Layout.header_size + (7 * p.jump_levels * Layout.jt_entry_size) + p.len)
  in
  let lo = groups.(a).tk and hi = groups.(b - 1).tk in
  if size < cfg.split_a || b - a < 2 || hi / 32 = lo / 32 then p :: acc
  else begin
    let best = ref None in
    for bd = 1 to 7 do
      let boundary = 32 * bd in
      if boundary > lo && boundary <= hi then begin
        let c = ref a in
        while groups.(!c).tk < boundary do incr c done;
        if !c > a then begin
          let left = p.t_offs.(!c - a) in
          let right = p.len - left in
          if left >= cfg.split_min_piece && right >= cfg.split_min_piece then begin
            let score = abs (left - right) in
            match !best with
            | Some (bs, _, _) when bs <= score -> ()
            | _ -> best := Some (score, boundary, !c)
          end
        end
      end
    done;
    match !best with
    | None -> p :: acc
    | Some (_, boundary, c) ->
        split src groups parts ~slot a c
          (split src groups parts ~slot:(boundary / 32) c b acc)
  end

let content parts p =
  let buf = Buffer.create p.len in
  Array.iteri
    (fun i h ->
      Buffer.add_string buf h;
      Buffer.add_string buf (fst parts.(p.a + i)))
    p.heads;
  Buffer.contents buf

let fill_cjt groups p buf base =
  let start = Layout.payload_start buf base in
  Jumps.fill_cjt buf base ~n:(p.b - p.a) (fun j ->
      (groups.(p.a + j).tk, start + p.t_offs.(j)))

let container src groups =
  eject_over_limit src groups;
  let parts = Array.map (s_part src) groups in
  let mm = src.trie.mm in
  match split src groups parts ~slot:0 0 (Array.length groups) [] with
  | [ p ] ->
      let hp =
        Splice.new_container ~jump_levels:p.jump_levels src.trie
          (content parts p)
      in
      let buf, base = Memman.resolve mm hp in
      fill_cjt groups p buf base;
      hp
  | pieces ->
      let ceb = Memman.ceb_alloc mm in
      List.iter
        (fun p ->
          let buf, base =
            Splice.write_slot ~jump_levels:p.jump_levels src.trie ceb p.slot
              (content parts p)
          in
          fill_cjt groups p buf base;
          Tag.recompute buf base)
        pieces;
      ceb

(* ---- the descent ----------------------------------------------------- *)

(* End of the run of keys from [i] sharing its byte at [level]; every key
   in [i, hi) is longer than [level]. *)
let run_end src i hi level =
  let c = src.keys.(i).[level] in
  let j = ref (i + 1) in
  while !j < hi && src.keys.(!j).[level] = c do incr j done;
  !j

(* Length of the prefix two keys share, given they share [from] bytes. *)
let common_prefix k1 k2 from =
  let n = min (String.length k1) (String.length k2) in
  let i = ref from in
  while !i < n && k1.[!i] = k2.[!i] do incr i done;
  !i

(* The T-nodes of the region for keys [lo, hi) at [level], their children
   finished bottom-up. *)
let rec groups_of src lo hi level =
  let out = ref [] in
  let i = ref lo in
  while !i < hi do
    let j = run_end src !i hi level in
    let k = src.keys.(!i) in
    let tterm, r =
      if String.length k = level + 1 then (Some src.vals.(!i), !i + 1)
      else (None, !i)
    in
    let ss = ref [] in
    let p = ref r in
    while !p < j do
      let q = run_end src !p j (level + 1) in
      let k = src.keys.(!p) in
      let sterm, c =
        if String.length k = level + 2 then (Some src.vals.(!p), !p + 1)
        else (None, !p)
      in
      let kind, body =
        if c < q then child src c q (level + 2) else (Node.No_child, "")
      in
      ss := { sk = byte k (level + 1); sterm; kind; body } :: !ss;
      p := q
    done;
    out := { tk = byte k level; tterm; ss = Array.of_list (List.rev !ss) } :: !out;
    i := j
  done;
  Array.of_list (List.rev !out)

(* The child body holding keys [lo, hi) from [level] on.  Levels that are
   a bare link (every key continues through one T and one S) are wrapped
   iteratively, so long shared prefixes do not deepen the recursion. *)
and child src lo hi level =
  if hi - lo = 1 then
    let k = src.keys.(lo) in
    Encode.make_child src.trie
      (String.sub k level (String.length k - level))
      src.vals.(lo)
  else begin
    let first = src.keys.(lo) in
    let stop =
      min
        (common_prefix first src.keys.(hi - 1) level)
        (String.length first - 1)
    in
    let links = if stop >= level + 2 then (stop - level) / 2 else 0 in
    let body = ref (finish src (groups_of src lo hi (level + (2 * links)))) in
    for l = links - 1 downto 0 do
      let lv = level + (2 * l) in
      let kind, body' = !body in
      let s = { sk = byte first (lv + 1); sterm = None; kind; body = body' } in
      body := finish src [| { tk = byte first lv; tterm = None; ss = [| s |] } |]
    done;
    !body
  end

(* A multi-key child embeds when its region fits an embedded container. *)
and finish src groups =
  let size = region_size src groups in
  if 1 + size <= min 255 src.trie.cfg.embedded_max then
    (Node.Child_embedded, emb_body src groups ~size)
  else (Node.Child_hp, Encode.hp_body (container src groups))

let build trie keys vals ~lo ~hi =
  if lo < hi then begin
    let src = { trie; keys; vals } in
    trie.root <- container src (groups_of src lo hi 0)
  end
