open Types

(* Growable int stacks: the builder's scratch, reused across every
   container of one build. *)
type stack = { mutable a : int array; mutable n : int }

let stack () = { a = Array.make 256 0; n = 0 }

let reserve st k =
  if st.n + k > Array.length st.a then begin
    let a = Array.make (max (2 * Array.length st.a) (st.n + k)) 0 in
    Array.blit st.a 0 a 0 st.n;
    st.a <- a
  end

let push st v =
  reserve st 1;
  st.a.(st.n) <- v;
  st.n <- st.n + 1

(* The plan: one entry of [stride] ints per T- or S-node, in pre-order, so
   a node's entry is followed by its children's.  A T entry's S-children
   follow it up to its [f_end]; an S entry's embedded child region follows
   it up to its [f_end]. *)
let stride = 9
let f_key = 0 (* the node's key byte *)
let f_term = 1 (* index of the key ending at this node, or -1 *)
let f_end = 2 (* one past the node's entries *)
let f_size = 3 (* T: bytes of its S-children; S: bytes of its child body *)
let f_kind = 4 (* S: child code *)
let f_count = 4 (* T: number of S-children *)
let f_hp = 5 (* S: HP of a container child (or of a suffix chain's top) *)
let f_skey = 6 (* S: index of the one key its suffix child holds, or -1 *)
let f_off = 7 (* S: where that suffix starts in the key *)
let f_typ = 8 (* the node's type code *)

let code_none = Node.child_code Node.No_child
let code_hp = Node.child_code Node.Child_hp
let code_emb = Node.child_code Node.Child_embedded

type src = {
  trie : trie;
  keys : string array;  (** strictly ascending stored keys *)
  vals : int64 option array;
  lcp : int array;  (** [lcp.(i)]: bytes [keys.(i)] shares with [keys.(i - 1)] *)
  budget : int;  (** largest embedded container *)
  chain : Encode.chain;
  pl : stack;  (** the plan *)
  tl : stack;  (** top-region T entries of the container being written *)
  offs : stack;  (** their offsets in the current piece *)
  pieces : stack;  (** (first, past-last, slot, length) per piece of that container *)
  soffs : stack;  (** S-child offsets of one T-node, or ejection candidates *)
}

let get src e f = src.pl.a.(e + f)
let set src e f v = src.pl.a.(e + f) <- v

let entry src =
  reserve src.pl stride;
  let e = src.pl.n in
  src.pl.n <- e + stride;
  e

let value src e =
  let i = get src e f_term in
  if i < 0 then None else src.vals.(i)

let typ src e = Node.typ_of_code (get src e f_typ)

let prev_of src prev = if src.trie.cfg.delta_encoding then prev else -1

let delta src ~prev e =
  Encode.delta_for ~prev_key:(prev_of src prev) ~key:(get src e f_key)

(* ---- sizes (integers only) ------------------------------------------ *)

let t_head_len src ~prev e =
  Node.t_head_size
    (Node.t_flag ~typ:(typ src e) ~delta:(delta src ~prev e) ~js:false ~jt:false)

let s_head_len src ~prev e =
  Node.s_head_size
    (Node.s_flag ~typ:(typ src e) ~delta:(delta src ~prev e) ~child:Node.No_child)

(* Jump fields a top-region T-node [e] carries: 0 none, 1 a jump
   successor, 2 a jump successor and a jump table. *)
let jumps src ~prev e =
  let cfg = src.trie.cfg and n = get src e f_count in
  let js = Jumps.wants_js cfg ~children:n in
  let jt = js && Jumps.wants_tjt cfg ~children:n in
  let extra = (if js then Node.js_size else 0) + if jt then Node.jt_size else 0 in
  if
    extra = 0
    || not (Jumps.span_fits (t_head_len src ~prev e + extra + get src e f_size))
  then 0
  else if jt then 2
  else 1

let jump_bytes = function 0 -> 0 | 1 -> Node.js_size | _ -> Node.js_size + Node.jt_size

(* Bytes of the region [a, b) with no jump fields: the size of its
   embedded form, and about that of its top region. *)
let region_size src a b =
  let total = ref 0 and e = ref a and prev = ref (-1) in
  while !e < b do
    total := !total + t_head_len src ~prev:!prev !e + get src !e f_size;
    prev := get src !e f_key;
    e := get src !e f_end
  done;
  !total

(* Bytes of T-node [t]'s S-children. *)
let s_part_size src t =
  let total = ref 0 and s = ref (t + stride) and prev = ref (-1) in
  while !s < get src t f_end do
    total := !total + s_head_len src ~prev:!prev !s + get src !s f_size;
    prev := get src !s f_key;
    s := get src !s f_end
  done;
  !total

(* ---- writing --------------------------------------------------------- *)

(* The records of region [a, b) with no jump fields, at [pos]; the
   position after them. *)
let rec write_region src a b buf pos =
  let pos = ref pos and e = ref a and prev = ref (-1) in
  while !e < b do
    let t = !e in
    pos :=
      Encode.write_t_head buf !pos ~prev_key:(prev_of src !prev)
        ~key:(get src t f_key) ~typ:(typ src t) ~value:(value src t);
    pos := write_s_part src t buf !pos;
    prev := get src t f_key;
    e := get src t f_end
  done;
  !pos

and write_s_part src t buf pos =
  let pos = ref pos and s = ref (t + stride) and prev = ref (-1) in
  while !s < get src t f_end do
    let e = !s in
    pos :=
      Encode.write_s_head buf !pos ~prev_key:(prev_of src !prev)
        ~key:(get src e f_key) ~typ:(typ src e) ~value:(value src e)
        ~child:(Node.child_of_code (get src e f_kind));
    pos := write_child src e buf !pos;
    prev := get src e f_key;
    s := get src e f_end
  done;
  !pos

and write_child src e buf pos =
  let i = get src e f_skey in
  if i >= 0 then
    let k = src.keys.(i) and off = get src e f_off in
    Encode.write_child src.trie src.chain k ~off ~len:(String.length k - off)
      src.vals.(i) ~hp:(get src e f_hp) buf pos
  else
    let kind = get src e f_kind in
    if kind = code_hp then Encode.write_hp buf pos (get src e f_hp)
    else if kind = code_emb then begin
      Bytes.set_uint8 buf pos (get src e f_size);
      write_region src (e + stride) (get src e f_end) buf (pos + 1)
    end
    else pos

(* A top-region T-node with the jump fields [jumps] grants it: head,
   jump successor past its S-children, jump table naming them, then the
   S-children. *)
let write_top_t src ~prev t buf pos =
  let j = jumps src ~prev t in
  let key = get src t f_key in
  let head_end =
    Encode.write_t_head_jumps buf pos ~js:(j > 0) ~jt:(j = 2)
      ~prev_key:(prev_of src prev) ~key ~typ:(typ src t) ~value:(value src t)
  in
  if j > 0 then begin
    let head_len = head_end - pos in
    let frag = Encode.head_frag_size (Bytes.get_uint8 buf pos) in
    Records.write_u16 buf (pos + frag) (head_len + get src t f_size);
    if j = 2 then begin
      (* each S-child's offset from the T record *)
      let so = src.soffs in
      so.n <- 0;
      let s = ref (t + stride) and off = ref head_len and sp = ref (-1) in
      while !s < get src t f_end do
        push so !s;
        push so !off;
        off := !off + s_head_len src ~prev:!sp !s + get src !s f_size;
        sp := get src !s f_key;
        s := get src !s f_end
      done;
      Jumps.fill_tjt buf (pos + frag + Node.js_size) ~n:(so.n / 2) (fun c ->
          (get src so.a.(2 * c) f_key, so.a.((2 * c) + 1)))
    end
  end;
  write_s_part src t buf head_end

(* ---- containers ------------------------------------------------------ *)

(* The negative-lookup tag of region [a, b) as a top region: the exact
   one {!Tag.compute} would read back. *)
let region_tag src a b =
  let tag = ref 0 and e = ref a in
  while !e < b do
    tag := !tag lor Tag.bit (get src !e f_key);
    e := get src !e f_end
  done;
  !tag

(* Eject S entry [s]'s embedded child: its bytes move verbatim into a
   container of its own. *)
let eject src s =
  let trie = src.trie in
  let hp = Splice.alloc_container trie (get src s f_size - 1) in
  let buf, base = Memman.resolve trie.mm hp in
  let pos = base + Layout.payload_start buf base in
  let i = get src s f_skey in
  let tag =
    if i >= 0 then begin
      (* a suffix chain's region is one T-node over the suffix's first byte *)
      let k = src.keys.(i) and off = get src s f_off in
      ignore
        (Encode.write_child ~bare:true trie src.chain k ~off
           ~len:(String.length k - off) src.vals.(i) ~hp:(get src s f_hp) buf pos);
      Tag.bit (Char.code k.[off])
    end
    else begin
      ignore (write_region src (s + stride) (get src s f_end) buf pos);
      region_tag src (s + stride) (get src s f_end)
    end
  in
  Layout.write_tag buf base tag;
  set src s f_hp hp;
  set src s f_skey (-1);
  set src s f_kind code_hp;
  set src s f_size Hp.byte_size

(* The paper ejects a top region's embedded children once its container
   outgrows [embedded_eject_parent_limit]; puts do it lazily as they pass
   by.  Here the largest are ejected, as puts would (the content moves
   verbatim into a container of its own), until the region fits. *)
let eject_over_limit src a b =
  let limit = src.trie.cfg.embedded_eject_parent_limit in
  let size = ref (region_size src a b) in
  if !size > limit then begin
    let cands = src.soffs in
    cands.n <- 0;
    let t = ref a in
    while !t < b do
      let s = ref (!t + stride) in
      while !s < get src !t f_end do
        if get src !s f_kind = code_emb then push cands !s;
        s := get src !s f_end
      done;
      t := get src !t f_end
    done;
    (* largest first; equal sizes in key order *)
    let order = Array.sub cands.a 0 cands.n in
    Array.sort
      (fun x y ->
        let c = compare (get src y f_size) (get src x f_size) in
        if c <> 0 then c else compare x y)
      order;
    Array.iter
      (fun s ->
        if !size > limit then begin
          size := !size - (get src s f_size - Hp.byte_size);
          eject src s
        end)
      order;
    let t = ref a in
    while !t < b do
      set src !t f_size (s_part_size src !t);
      t := get src !t f_end
    done
  end

let tkey src i = get src src.tl.a.(i) f_key

(* Offsets of top-region T-nodes [i0, i1) from the piece's content start
   into [offs] ([offs.(i1 - i0)] is the content length). *)
let piece_offsets src i0 i1 =
  let offs = src.offs in
  offs.n <- 0;
  let off = ref 0 in
  for i = i0 to i1 - 1 do
    push offs !off;
    let t = src.tl.a.(i) in
    let prev = if i = i0 then -1 else tkey src (i - 1) in
    off := !off + t_head_len src ~prev t + jump_bytes (jumps src ~prev t) + get src t f_size
  done;
  push offs !off;
  !off

let jump_levels src count =
  if count >= src.trie.cfg.container_jt_threshold then Jumps.cjt_levels ~t_nodes:count
  else 0

(* Spread an oversized container over CEB slots the way repeated
   [Ops.try_split]s would: cut at the 32-key boundary that best balances
   the two pieces (each at least [split_min_piece]); the left piece keeps
   its slot, the right one takes slot [boundary / 32].  Pieces are pushed
   in key order. *)
let rec split src ~slot i0 i1 =
  let cfg = src.trie.cfg in
  let len = piece_offsets src i0 i1 in
  let size =
    Splice.round32
      (Layout.header_size + (7 * jump_levels src (i1 - i0) * Layout.jt_entry_size) + len)
  in
  let lo = tkey src i0 and hi = tkey src (i1 - 1) in
  let best_score = ref max_int and best_bd = ref 0 and best_c = ref 0 in
  if not (size < cfg.split_a || i1 - i0 < 2 || hi / 32 = lo / 32) then begin
    let c = ref i0 in
    for bd = 1 to 7 do
      let boundary = 32 * bd in
      if boundary > lo && boundary <= hi then begin
        while tkey src !c < boundary do incr c done;
        if !c > i0 then begin
          let left = src.offs.a.(!c - i0) in
          let right = len - left in
          if left >= cfg.split_min_piece && right >= cfg.split_min_piece then begin
            let score = abs (left - right) in
            if score < !best_score then begin
              best_score := score;
              best_bd := boundary;
              best_c := !c
            end
          end
        end
      end
    done
  end;
  if !best_bd = 0 then begin
    push src.pieces i0;
    push src.pieces i1;
    push src.pieces slot;
    push src.pieces len
  end
  else begin
    let bd = !best_bd and c = !best_c in
    split src ~slot i0 c;
    split src ~slot:(bd / 32) c i1
  end

(* Write the piece of top-region T-nodes [i0, i1) into the container at
   [base], with its negative-lookup tag and container jump table. *)
let write_piece src i0 i1 buf base =
  let start = Layout.payload_start buf base in
  let offs = src.offs in
  offs.n <- 0;
  let pos = ref (base + start) and tag = ref 0 in
  for i = i0 to i1 - 1 do
    push offs (!pos - base - start);
    let prev = if i = i0 then -1 else tkey src (i - 1) in
    pos := write_top_t src ~prev src.tl.a.(i) buf !pos;
    tag := !tag lor Tag.bit (tkey src i)
  done;
  Layout.write_tag buf base !tag;
  Jumps.fill_cjt buf base ~n:(i1 - i0) (fun j ->
      (tkey src (i0 + j), start + src.offs.a.(j)))

(* The container (or CEB) holding region [a, pl.n): its embedded children
   over the limit ejected first, then its top region written straight
   into its chunk or slots. *)
let container src a =
  let b = src.pl.n in
  eject_over_limit src a b;
  let tl = src.tl in
  tl.n <- 0;
  let t = ref a in
  while !t < b do
    push tl !t;
    t := get src !t f_end
  done;
  src.pieces.n <- 0;
  split src ~slot:0 0 tl.n;
  let trie = src.trie and pc = src.pieces in
  if pc.n = 4 then begin
    let jump_levels = jump_levels src tl.n in
    let hp = Splice.alloc_container ~jump_levels trie pc.a.(3) in
    let buf, base = Memman.resolve trie.mm hp in
    write_piece src 0 tl.n buf base;
    hp
  end
  else begin
    let ceb = Memman.ceb_alloc trie.mm in
    for p = 0 to (pc.n / 4) - 1 do
      let i0 = pc.a.(4 * p) and i1 = pc.a.((4 * p) + 1) in
      let buf, base =
        Splice.alloc_slot ~jump_levels:(jump_levels src (i1 - i0)) trie ceb
          pc.a.((4 * p) + 2) pc.a.((4 * p) + 3)
      in
      write_piece src i0 i1 buf base
    done;
    ceb
  end

(* ---- the plan -------------------------------------------------------- *)

(* End of the run of keys from [i] sharing its byte at [level]; every key
   in [i, hi) is longer than [level] and they share their first [level]
   bytes, so only the prefix lengths are read, not the keys. *)
let run_end src i hi level =
  let j = ref (i + 1) in
  while !j < hi && src.lcp.(!j) > level do incr j done;
  !j

(* Bytes the keys [lo, hi) all share. *)
let common_prefix src lo hi =
  let m = ref max_int in
  for j = lo + 1 to hi - 1 do
    if src.lcp.(j) < !m then m := src.lcp.(j)
  done;
  !m

(* S entry [s] takes the region [a, pl.n) as its child: embedded when it
   fits, else built into a container now — children before parents, as
   the put path would allocate them — and dropped from the plan. *)
let finish src s a =
  let size = region_size src a src.pl.n in
  if 1 + size <= src.budget then begin
    set src s f_kind code_emb;
    set src s f_size (1 + size)
  end
  else begin
    let hp = container src a in
    src.pl.n <- a;
    set src s f_kind code_hp;
    set src s f_size Hp.byte_size;
    set src s f_hp hp
  end

let open_entry src ~key ~term =
  let e = entry src in
  set src e f_key key;
  set src e f_term term;
  set src e f_typ
    (Node.typ_code
       (if term < 0 then Node.Inner
        else match src.vals.(term) with Some _ -> Node.Leaf_value | None -> Node.Leaf_no_value));
  set src e f_size 0;
  set src e f_kind code_none;
  set src e f_hp Hp.null;
  set src e f_skey (-1);
  e

(* Plan the region for keys [lo, hi) at [level], children first. *)
let rec plan_region src lo hi level =
  let i = ref lo in
  while !i < hi do
    let j = run_end src !i hi level in
    let k = src.keys.(!i) in
    let ends = String.length k = level + 1 in
    let t = open_entry src ~key:(Char.code k.[level]) ~term:(if ends then !i else -1) in
    let p = ref (if ends then !i + 1 else !i) and count = ref 0 in
    let size = ref 0 and prev = ref (-1) in
    while !p < j do
      let q = run_end src !p j (level + 1) in
      let k = src.keys.(!p) in
      let ends = String.length k = level + 2 in
      let s =
        open_entry src ~key:(Char.code k.[level + 1]) ~term:(if ends then !p else -1)
      in
      let c = if ends then !p + 1 else !p in
      if c < q then plan_child src s c q (level + 2);
      set src s f_end src.pl.n;
      size := !size + s_head_len src ~prev:!prev s + get src s f_size;
      prev := get src s f_key;
      incr count;
      p := q
    done;
    set src t f_count !count;
    set src t f_end src.pl.n;
    set src t f_size !size;
    i := j
  done

(* The child of S entry [s] holding keys [lo, hi) from [level] on.  One
   key is a suffix chain ({!Encode}); more are a region, and the levels
   that are a bare link (every key continues through one T and one S) are
   planned and finished iteratively, innermost first, so long shared
   prefixes do not deepen the recursion. *)
and plan_child src s lo hi level =
  if hi - lo = 1 then begin
    let k = src.keys.(lo) and v = src.vals.(lo) in
    let len = String.length k - level in
    let p = Encode.layout_child src.trie src.chain ~len ~has_value:(Option.is_some v) in
    set src s f_kind (Node.child_code (Encode.child_kind p));
    set src s f_size (Encode.child_size p);
    set src s f_skey lo;
    set src s f_off level;
    set src s f_hp (Encode.alloc_child src.trie src.chain k ~off:level ~len v)
  end
  else begin
    let first = src.keys.(lo) in
    let stop = min (common_prefix src lo hi) (String.length first - 1) in
    let links = if stop >= level + 2 then (stop - level) / 2 else 0 in
    let link0 = src.pl.n in
    for l = 0 to links - 1 do
      let lv = level + (2 * l) in
      ignore (open_entry src ~key:(Char.code first.[lv]) ~term:(-1));
      ignore (open_entry src ~key:(Char.code first.[lv + 1]) ~term:(-1))
    done;
    let inner = src.pl.n in
    plan_region src lo hi (level + (2 * links));
    (* link [l]'s T entry is at [link0 + 2 l stride], its S entry next *)
    finish src (if links = 0 then s else inner - stride) inner;
    for l = links - 1 downto 0 do
      let t = link0 + (2 * l * stride) in
      set src (t + stride) f_end src.pl.n;
      set src t f_count 1;
      set src t f_end src.pl.n;
      set src t f_size (s_part_size src t);
      finish src (if l = 0 then s else t - stride) t
    done
  end

let build trie keys vals ~lcp ~lo ~hi =
  if lo < hi then begin
    let src =
      {
        trie;
        keys;
        vals;
        lcp;
        budget = min 255 trie.cfg.embedded_max;
        chain = Encode.chain ();
        pl = stack ();
        tl = stack ();
        offs = stack ();
        pieces = stack ();
        soffs = stack ();
      }
    in
    plan_region src lo hi 0;
    trie.root <- container src 0
  end

let prefix_lengths keys =
  let n = Array.length keys in
  let lcp = Array.make n 0 in
  for i = 1 to n - 1 do
    let a = keys.(i - 1) and b = keys.(i) in
    let m = min (String.length a) (String.length b) in
    let p = ref 0 in
    while !p + 8 <= m && String.get_int64_ne a !p = String.get_int64_ne b !p do
      p := !p + 8
    done;
    while !p < m && a.[!p] = b.[!p] do incr p done;
    (* strictly ascending: [a] is a proper prefix of [b], or they first
       differ by a smaller byte of [a] *)
    if !p = String.length b || (!p < String.length a && a.[!p] > b.[!p]) then
      invalid_arg "Store.of_sorted: keys not strictly ascending";
    lcp.(i) <- !p
  done;
  lcp
