(* Container header, container jump table, embedded header and record
   parsing (paper Figures 3, 5, 6, 7, 10). *)

module L = Hyperion.Layout
module N = Hyperion.Node
module R = Hyperion.Records

let test_header_roundtrip () =
  let buf = Bytes.make 8 '\000' in
  L.write_header buf 0 ~size:123456 ~free:200 ~jump_levels:5 ~split_delay:2;
  Alcotest.(check int) "size" 123456 (L.read_size buf 0);
  Alcotest.(check int) "free" 200 (L.read_free buf 0);
  Alcotest.(check int) "J" 5 (L.read_jump_levels buf 0);
  Alcotest.(check int) "S" 2 (L.read_split_delay buf 0);
  L.set_free buf 0 31;
  Alcotest.(check int) "free updated" 31 (L.read_free buf 0);
  Alcotest.(check int) "size untouched" 123456 (L.read_size buf 0);
  L.set_split_delay buf 0 3;
  Alcotest.(check int) "S updated" 3 (L.read_split_delay buf 0);
  Alcotest.(check int) "J untouched" 5 (L.read_jump_levels buf 0)

let test_header_limits () =
  let buf = Bytes.make 8 '\000' in
  L.write_header buf 0 ~size:L.max_container_size ~free:255 ~jump_levels:7
    ~split_delay:3;
  Alcotest.(check int) "max size" L.max_container_size (L.read_size buf 0);
  Alcotest.check_raises "size overflow"
    (Invalid_argument "Layout: container size out of 19-bit range") (fun () ->
      L.write_header buf 0 ~size:(L.max_container_size + 1) ~free:0
        ~jump_levels:0 ~split_delay:0)

let test_cjt () =
  let buf = Bytes.make 64 '\000' in
  L.write_header buf 0 ~size:64 ~free:0 ~jump_levels:2 ~split_delay:0;
  Alcotest.(check int) "entries" 14 (L.jt_count buf 0);
  Alcotest.(check int) "area" 56 (L.jt_area_size buf 0);
  Alcotest.(check int) "payload start" 61 (L.payload_start buf 0);
  L.jt_write buf 0 3 ~key:128 ~off:99999;
  Alcotest.(check (pair int int)) "entry" (128, 99999)
    (L.jt_key buf 0 3, L.jt_off buf 0 3)

let test_qcheck_flags =
  QCheck.Test.make ~name:"node flag roundtrip" ~count:500
    QCheck.(
      quad (int_range 1 3) (int_bound 7) bool bool)
    (fun (tcode, delta, js, jt) ->
      let typ = N.typ_of_code tcode in
      let tf = N.t_flag ~typ ~delta ~js ~jt in
      let sf = N.s_flag ~typ ~delta ~child:N.Child_pc in
      N.typ_of_flag tf = typ
      && N.delta_of_flag tf = delta
      && N.has_js tf = js
      && N.has_jt tf = jt
      && (not (N.is_snode tf))
      && N.is_snode sf
      && N.child_of_flag sf = N.Child_pc)

(* The paper's Figure 6: container C3 stores partial keys "at" and "e";
   C3* stores "at" and "ae".  Build the byte arrays with our encoders and
   re-parse them. *)
let test_paper_figure6 () =
  let t_a =
    Hyperion.Encode.t_record ~prev_key:(-1) ~key:(Char.code 'a') ~typ:N.Inner
      ~value:None
  in
  let s_t =
    Hyperion.Encode.s_record ~prev_key:(-1) ~key:(Char.code 't')
      ~typ:N.Leaf_no_value ~value:None ~child:N.No_child
  in
  let t_e =
    Hyperion.Encode.t_record ~prev_key:(Char.code 'a') ~key:(Char.code 'e')
      ~typ:N.Leaf_no_value ~value:None
  in
  let c3 = t_a ^ s_t ^ t_e in
  let buf = Bytes.of_string c3 in
  let t1 = R.parse_t buf 0 ~prev_key:(-1) in
  Alcotest.(check int) "T key a" (Char.code 'a') t1.R.t_key;
  Alcotest.(check bool) "inner" true (N.typ_of_flag t1.R.t_flag = N.Inner);
  let s1 = R.parse_s buf t1.R.t_head_end ~prev_key:(-1) in
  Alcotest.(check int) "S key t" (Char.code 't') s1.R.s_key;
  Alcotest.(check bool) "leaf w/o value" true
    (N.typ_of_flag s1.R.s_flag = N.Leaf_no_value);
  (* 'e' delta-encodes against 'a' (delta 4, paper Fig. 10) *)
  let t2 = R.parse_t buf s1.R.s_end ~prev_key:t1.R.t_key in
  Alcotest.(check int) "T key e via delta" (Char.code 'e') t2.R.t_key;
  Alcotest.(check int) "delta is 4" 4 (N.delta_of_flag t2.R.t_flag);
  (* the delta-encoded record saves its key byte *)
  Alcotest.(check int) "delta record is 1 byte" 1 (String.length t_e)

let test_pc_codec () =
  let body = Hyperion.Encode.pc_body "suffix" (Some 42L) in
  let buf = Bytes.of_string body in
  let pc = R.parse_pc buf 0 in
  Alcotest.(check int) "len" 6 pc.R.pc_suffix_len;
  Alcotest.(check bool) "has value" true (pc.R.pc_value_pos >= 0);
  Alcotest.(check string) "suffix" "suffix"
    (Bytes.sub_string buf pc.R.pc_suffix_pos pc.R.pc_suffix_len);
  Alcotest.(check int64) "value" 42L (R.read_value buf pc.R.pc_value_pos);
  Alcotest.(check int) "end" (String.length body) pc.R.pc_end;
  let no_val = Hyperion.Encode.pc_body "xy" None in
  let pc2 = R.parse_pc (Bytes.of_string no_val) 0 in
  Alcotest.(check bool) "no value" true (pc2.R.pc_value_pos < 0);
  Alcotest.(check int) "size" 3 (String.length no_val)

let test_emb_header () =
  let buf = Bytes.make 4 '\000' in
  L.set_emb_total_size buf 1 200;
  Alcotest.(check int) "emb size" 200 (L.emb_total_size buf 1);
  Alcotest.check_raises "embedded size > 255"
    (Invalid_argument "Layout: embedded container size out of [1,255]")
    (fun () -> L.set_emb_total_size buf 1 256)

let () =
  Alcotest.run "layout"
    [
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "limits" `Quick test_header_limits;
          Alcotest.test_case "container jump table" `Quick test_cjt;
          Alcotest.test_case "embedded header" `Quick test_emb_header;
        ] );
      ( "records",
        [
          QCheck_alcotest.to_alcotest test_qcheck_flags;
          Alcotest.test_case "paper figure 6" `Quick test_paper_figure6;
          Alcotest.test_case "pc codec" `Quick test_pc_codec;
        ] );
    ]
