let header_size = 5
let max_container_size = (1 lsl 19) - 1
let jt_entry_size = 4
let emb_header_size = 1

(* Header word, little-endian: size bits 0-18, free bits 19-26, J bits
   27-29, S bits 30-31.  Byte 4 is the container's negative-lookup tag —
   an 8-bit Bloom filter over the top-region T-node keys (bit
   [t_key mod 8]) consulted before any scan.  The word codec below never
   touches it, so header rewrites preserve the tag. *)

let read_word buf base =
  Bytes.get_uint8 buf base
  lor (Bytes.get_uint8 buf (base + 1) lsl 8)
  lor (Bytes.get_uint8 buf (base + 2) lsl 16)
  lor (Bytes.get_uint8 buf (base + 3) lsl 24)

let write_word buf base w =
  Bytes.set_uint8 buf base (w land 0xff);
  Bytes.set_uint8 buf (base + 1) ((w lsr 8) land 0xff);
  Bytes.set_uint8 buf (base + 2) ((w lsr 16) land 0xff);
  Bytes.set_uint8 buf (base + 3) ((w lsr 24) land 0xff)

let read_size buf base = read_word buf base land max_container_size
let read_free buf base = (read_word buf base lsr 19) land 0xff
let read_jump_levels buf base = (read_word buf base lsr 27) land 0b111
let read_split_delay buf base = (read_word buf base lsr 30) land 0b11

let write_header buf base ~size ~free ~jump_levels ~split_delay =
  if size < 0 || size > max_container_size then
    invalid_arg "Layout: container size out of 19-bit range";
  if free < 0 || free > 255 then invalid_arg "Layout: free out of 8-bit range";
  if jump_levels < 0 || jump_levels > 7 then invalid_arg "Layout: J out of range";
  if split_delay < 0 || split_delay > 3 then invalid_arg "Layout: S out of range";
  write_word buf base
    (size lor (free lsl 19) lor (jump_levels lsl 27) lor (split_delay lsl 30))

let set_size buf base size =
  write_header buf base ~size ~free:(read_free buf base)
    ~jump_levels:(read_jump_levels buf base)
    ~split_delay:(read_split_delay buf base)

let set_free buf base free =
  write_header buf base ~size:(read_size buf base) ~free
    ~jump_levels:(read_jump_levels buf base)
    ~split_delay:(read_split_delay buf base)

let set_jump_levels buf base jump_levels =
  write_header buf base ~size:(read_size buf base)
    ~free:(read_free buf base) ~jump_levels
    ~split_delay:(read_split_delay buf base)

let set_split_delay buf base split_delay =
  write_header buf base ~size:(read_size buf base)
    ~free:(read_free buf base)
    ~jump_levels:(read_jump_levels buf base)
    ~split_delay

let tag_pos = 4

let read_tag buf base = Bytes.get_uint8 buf (base + tag_pos)
let write_tag buf base v = Bytes.set_uint8 buf (base + tag_pos) (v land 0xff)

let jt_count buf base = 7 * read_jump_levels buf base
let jt_area_size buf base = jt_entry_size * jt_count buf base
let payload_start buf base = header_size + jt_area_size buf base
let content_end buf base = read_size buf base - read_free buf base

let jt_key buf base i = Bytes.get_uint8 buf (base + header_size + (i * jt_entry_size))

let jt_off buf base i =
  let p = base + header_size + (i * jt_entry_size) in
  Bytes.get_uint8 buf (p + 1)
  lor (Bytes.get_uint8 buf (p + 2) lsl 8)
  lor (Bytes.get_uint8 buf (p + 3) lsl 16)

let jt_write buf base i ~key ~off =
  if off < 0 || off > 0xffffff then invalid_arg "Layout.jt_write: offset too large";
  let p = base + header_size + (i * jt_entry_size) in
  Bytes.set_uint8 buf p key;
  Bytes.set_uint8 buf (p + 1) (off land 0xff);
  Bytes.set_uint8 buf (p + 2) ((off lsr 8) land 0xff);
  Bytes.set_uint8 buf (p + 3) ((off lsr 16) land 0xff)

let emb_total_size buf pos = Bytes.get_uint8 buf pos

let set_emb_total_size buf pos size =
  if size < 1 || size > 255 then
    invalid_arg "Layout: embedded container size out of [1,255]";
  Bytes.set_uint8 buf pos size
