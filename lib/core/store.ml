type t = {
  cfg : Config.t;
  mms : Memman.t array;  (** one per arena *)
  locks : Mutex.t array;  (** one per arena *)
  tries : Types.trie array;  (** 1, or 256 routed by first key byte *)
  counts : int Atomic.t array;
      (** keys per trie; written under the arena lock, read lock-free by
          {!length} (atomic, so concurrent readers never see torn values) *)
}

let name = "Hyperion"

(* --- telemetry -------------------------------------------------------- *)

module T = Telemetry

(* One latency histogram family, labelled per operation.  All recording is
   guarded by [T.enabled ()], so with telemetry off every public op pays
   exactly one flag load and one branch, and no metric cell is written
   (test_telemetry.ml asserts both the zero-counter and the
   semantics-invariance halves of that contract). *)
let m_put =
  T.Histogram.make "hyperion_op_latency_ns"
    ~labels:[ ("op", "put") ]
    ~help:"Store operation latency in nanoseconds"

let m_add = T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "add") ]
let m_get = T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "get") ]

let m_delete =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "delete") ]

let m_get_many =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "get_many") ]

let m_mem_many =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "mem_many") ]

let create ?(config = Config.default) () =
  Config.validate config;
  let mms =
    Array.init config.arenas (fun _ ->
        Memman.create ~chunks_per_bin:config.chunks_per_bin
          ~max_metabins:config.max_metabins ())
  in
  let locks = Array.init config.arenas (fun _ -> Mutex.create ()) in
  let n_tries = if config.arenas = 1 then 1 else 256 in
  let tries =
    Array.init n_tries (fun i ->
        {
          Types.cfg = config;
          mm = mms.(i mod config.arenas);
          root = Hp.null;
        })
  in
  { cfg = config; mms; locks; tries;
    counts = Array.init n_tries (fun _ -> Atomic.make 0) }

let create_default () = create ()
let config t = t.cfg

let stored_key (cfg : Config.t) key =
  if cfg.preprocess then Preprocess.encode key else key

let stored_key_sub (cfg : Config.t) buf ~pos ~len =
  if cfg.preprocess then Preprocess.encode_sub buf ~pos ~len
  else Bytes.sub_string buf pos len

(* The stored key is one byte longer under pre-processing. *)
let key_error (cfg : Config.t) key =
  match Ops.key_error key with
  | Some _ as e -> e
  | None ->
      let n = String.length key in
      if not cfg.preprocess then None
      else if n < Preprocess.min_key_len then Some (Hyperion_error.Key_too_short n)
      else if n + 1 > Ops.max_key_len then Some (Hyperion_error.Key_too_long (n + 1))
      else None

let xform t key = stored_key t.cfg key

let route t key =
  if Array.length t.tries = 1 then 0 else Char.code key.[0]

let with_arena t idx f =
  let lock = t.locks.(idx mod Array.length t.locks) in
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
[@@lock_wrapper "Store.t.locks"]

let put_opt t key value =
  let key = xform t key in
  if String.length key = 0 then invalid_arg "Hyperion: empty key";
  let i = route t key in
  with_arena t i (fun () ->
      if Ops.put t.tries.(i) key value then Atomic.incr t.counts.(i))

(* Instrumented entry: run [op]'s body between two clock reads, feed the
   elapsed time into [metric], and hand slow ops (with whatever path flags
   the engine marked) to the trace ring.  Written as a per-call-site [if]
   rather than a closure-taking combinator to keep the enabled path
   allocation-free. *)

let put t key value =
  if T.enabled () then begin
    let t0 = T.op_start () in
    put_opt t key (Some value);
    T.op_end m_put ~kind:"put" ~key_len:(String.length key) t0
  end
  else put_opt t key (Some value)

let add t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    put_opt t key None;
    T.op_end m_add ~kind:"add" ~key_len:(String.length key) t0
  end
  else put_opt t key None

let get_u t key =
  let key = xform t key in
  if String.length key = 0 then invalid_arg "Hyperion: empty key";
  let i = route t key in
  with_arena t i (fun () ->
      match Ops.find t.tries.(i) key with
      | Some (Some v) -> Some v
      | Some None | None -> None)

let get t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = get_u t key in
    T.op_end m_get ~kind:"get" ~key_len:(String.length key) t0;
    r
  end
  else get_u t key

let mem t key =
  let key = xform t key in
  if String.length key = 0 then invalid_arg "Hyperion: empty key";
  let i = route t key in
  with_arena t i (fun () -> Ops.find t.tries.(i) key <> None)

(* --- batched reads -------------------------------------------------- *)

(* Validate before touching any trie so a batch either runs whole or
   raises without partial effects — reads have none anyway, but this
   keeps [get_many keys = Array.map (get t) keys] exact even on the
   raising cases: the empty check mirrors [get_u]'s, the length check
   mirrors [Ops.find]'s (both on the post-[xform] key). *)
let validate_batch ekeys =
  Array.iter
    (fun k ->
      if String.length k = 0 then invalid_arg "Hyperion: empty key";
      if Ops.key_error k <> None then
        invalid_arg "Hyperion: key longer than 2^20 bytes")
    ekeys

let find_many_u ?width t keys =
  let n = Array.length keys in
  (* the identity xform needs no per-batch copy *)
  let ekeys =
    if t.cfg.preprocess then Array.map (xform t) keys else keys
  in
  validate_batch ekeys;
  if Array.length t.tries = 1 then
    with_arena t 0 (fun () -> Getmany.find_many ?width t.tries.(0) ekeys)
  else begin
    (* Group per routed trie, pipeline each group under its arena lock,
       then scatter results back to input positions. *)
    let out = Array.make n None in
    let groups = Array.make 256 [] in
    for i = n - 1 downto 0 do
      let r = Char.code ekeys.(i).[0] in
      groups.(r) <- i :: groups.(r)
    done;
    Array.iteri
      (fun tri idxs ->
        if idxs <> [] then begin
          let idxa = Array.of_list idxs in
          let sub = Array.map (fun i -> ekeys.(i)) idxa in
          let r =
            with_arena t tri (fun () ->
                Getmany.find_many ?width t.tries.(tri) sub)
          in
          Array.iteri (fun j i -> out.(i) <- r.(j)) idxa
        end)
      groups;
    out
  end

let get_many ?width t keys =
  let body () =
    Array.map
      (function Some (Some v) -> Some v | Some None | None -> None)
      (find_many_u ?width t keys)
  in
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = body () in
    T.op_end m_get_many ~kind:"get_many" ~key_len:(Array.length keys) t0;
    r
  end
  else body ()

let mem_many ?width t keys =
  let body () =
    Array.map (fun r -> r <> None) (find_many_u ?width t keys)
  in
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = body () in
    T.op_end m_mem_many ~kind:"mem_many" ~key_len:(Array.length keys) t0;
    r
  end
  else body ()

let delete_u t key =
  let key = xform t key in
  if String.length key = 0 then invalid_arg "Hyperion: empty key";
  let i = route t key in
  with_arena t i (fun () ->
      let removed = Ops.delete t.tries.(i) key in
      if removed then Atomic.decr t.counts.(i);
      removed)

let delete t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = delete_u t key in
    T.op_end m_delete ~kind:"delete" ~key_len:(String.length key) t0;
    r
  end
  else delete_u t key

let range t ?start f =
  let start = Option.map (xform t) start in
  let wrap key value =
    let key = if t.cfg.preprocess then Preprocess.decode key else key in
    f key value
  in
  let n = Array.length t.tries in
  if n = 1 then
    with_arena t 0 (fun () -> Range.range t.tries.(0) ?start wrap)
  else begin
    (* Tries are routed by first key byte, so visiting them in index order
       preserves the global key order. *)
    let stop = ref false in
    let wrap' key value =
      let continue = wrap key value in
      if not continue then stop := true;
      continue
    in
    let first = match start with Some s when s <> "" -> Char.code s.[0] | _ -> 0 in
    let i = ref first in
    while (not !stop) && !i < n do
      let idx = !i in
      let bound = if idx = first then start else None in
      with_arena t idx (fun () -> Range.range t.tries.(idx) ?start:bound wrap');
      incr i
    done
  end

let length t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts

(* --- bottom-up construction ---------------------------------------- *)

let of_sorted ?(config = Config.default) keys values =
  let n = Array.length keys in
  if Array.length values <> n then
    invalid_arg "Store.of_sorted: keys and values differ in length";
  let lcp = Bulk.prefix_lengths keys in
  match Array.find_map Ops.key_error keys with
  | Some e -> Error e
  | None -> (
      let t = create ~config () in
      let build i ~lo ~hi =
        with_arena t i (fun () -> Bulk.build t.tries.(i) keys values ~lcp ~lo ~hi);
        Atomic.set t.counts.(i) (hi - lo)
      in
      match
        if Array.length t.tries = 1 then build 0 ~lo:0 ~hi:n
        else begin
          (* tries are routed by first byte: each owns a contiguous run *)
          let lo = ref 0 in
          while !lo < n do
            let r = route t keys.(!lo) in
            let hi = ref (!lo + 1) in
            while !hi < n && route t keys.(!hi) = r do incr hi done;
            build r ~lo:!lo ~hi:!hi;
            lo := !hi
          done
        end
      with
      | () -> Ok t
      | exception Hyperion_error.Error e -> Error e)

(* --- typed-result mutation API ------------------------------------- *)

let put_result_opt_u t key value =
  match key_error t.cfg key with
  | Some e -> Error e
  | None ->
      let key = xform t key in
      let i = route t key in
      with_arena t i (fun () ->
          match Ops.put_checked t.tries.(i) key value with
          | Ok added ->
              if added then Atomic.incr t.counts.(i);
              Ok ()
          | Error _ as e -> e)

(* The typed-result paths feed the same histograms as the raising ones:
   these are what the WAL-logged and sharded front-ends call, so sharded
   benches and chaos runs surface their latencies under the same names. *)
let put_result_opt t key value =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = put_result_opt_u t key value in
    let m, kind =
      match value with Some _ -> (m_put, "put") | None -> (m_add, "add")
    in
    T.op_end m ~kind ~key_len:(String.length key) t0;
    r
  end
  else put_result_opt_u t key value

let put_result t key value = put_result_opt t key (Some value)
let add_result t key = put_result_opt t key None

let delete_result_u t key =
  match key_error t.cfg key with
  | Some e -> Error e
  | None ->
      let key = xform t key in
      let i = route t key in
      with_arena t i (fun () ->
          match Ops.delete t.tries.(i) key with
          | removed ->
              if removed then Atomic.decr t.counts.(i);
              Ok removed
          | exception Hyperion_error.Error e -> Error e)

let delete_result t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = delete_result_u t key in
    T.op_end m_delete ~kind:"delete" ~key_len:(String.length key) t0;
    r
  end
  else delete_result_u t key

(* --- fault injection and saturation -------------------------------- *)

let set_fault_plan t plan =
  Array.iter (fun mm -> Memman.set_fault mm plan) t.mms

let fault_plan t = Memman.fault t.mms.(0)

let saturated_arenas t =
  Array.fold_left
    (fun acc mm -> acc + if Memman.is_saturated mm then 1 else 0)
    0 t.mms

(* Readers of memory-manager state take the owning arena's lock so a
   concurrent mutator (another thread, or a shard worker domain) can never
   expose them to a half-updated manager. *)
let with_arena_of_mm t mm_idx f = with_arena t mm_idx f

let memory_usage t =
  let total = ref 0 in
  Array.iteri
    (fun i mm ->
      total := !total + with_arena_of_mm t i (fun () -> Memman.total_bytes mm))
    t.mms;
  !total

let stats t =
  (* Tries share memory managers when arenas < 256, so the per-trie
     saturation bit from [Stats.collect] would overcount; recompute it from
     the managers themselves.  Each trie is walked under its arena lock:
     the walk parses live container bytes, so racing a mutator would read
     mid-splice garbage. *)
  let s = ref Stats.empty in
  Array.iteri
    (fun i trie ->
      s := with_arena t i (fun () -> Stats.add !s (Stats.collect trie)))
    t.tries;
  { !s with Stats.saturated_arenas = saturated_arenas t }

let superbin_profile t =
  let merged =
    Array.init 64 (fun _ ->
        {
          Memman.chunk_size = 0;
          allocated_chunks = 0;
          empty_chunks = 0;
          allocated_bytes = 0;
          empty_bytes = 0;
        })
  in
  Array.iteri
    (fun mm_i mm ->
      let p = with_arena_of_mm t mm_i (fun () -> Memman.superbin_profile mm) in
      Array.iteri
        (fun i s ->
          merged.(i) <-
            {
              Memman.chunk_size = s.Memman.chunk_size;
              allocated_chunks =
                merged.(i).Memman.allocated_chunks + s.Memman.allocated_chunks;
              empty_chunks =
                merged.(i).Memman.empty_chunks + s.Memman.empty_chunks;
              allocated_bytes =
                merged.(i).Memman.allocated_bytes + s.Memman.allocated_bytes;
              empty_bytes =
                merged.(i).Memman.empty_bytes + s.Memman.empty_bytes;
            })
        p)
    t.mms;
  merged

let allocated_chunks t =
  let total = ref 0 in
  Array.iteri
    (fun i mm ->
      total :=
        !total + with_arena_of_mm t i (fun () -> Memman.allocated_chunk_count mm))
    t.mms;
  !total

let internal_tries t = t.tries

let iter t f =
  range t (fun k v ->
      f k v;
      true)

let fold t ~init ~f =
  let acc = ref init in
  range t (fun k v ->
      acc := f !acc k v;
      true);
  !acc

let starts_with ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

let prefix_iter t ~prefix f =
  if prefix = "" then range t f
  else
    range t ~start:prefix (fun k v ->
        if starts_with ~prefix k then f k v else false)
