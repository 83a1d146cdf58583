(* The single-threaded open-loop load driver for the served workloads.

   One process, one thread, a fixed set of TCP connections and one
   [Unix.select] loop.  Request [i] is due at [t0 + at.(i)] and rides
   connection [i mod conns]; at most [depth] requests are outstanding per
   connection.  Latency is measured from the scheduled send time, so a
   server stall is charged to every request it delayed (no coordinated
   omission).  How late the driver itself sent each request is recorded
   separately: the baseline is the later of the scheduled time and the
   moment a full window freed a slot, so server back-pressure is not
   counted as driver lateness.

   Why not threads: two OCaml sys-threads in one domain contend on the
   runtime lock, and that contention would be measured instead of the
   server.  The loop spins (zero-timeout select) rather than sleep until
   a send is due, because a sleeping select wakes tens of microseconds
   late. *)

module F = Hyperion_net.Frame

type plan = {
  at : int array;  (** scheduled send, ns after the start *)
  put : Bytes.t;  (** ['\001'] for a Put, ['\000'] for a Get *)
  key : string array;
  value : int array;
      (** Put: the value written; Get: the value expected, [-1] = absent *)
}

let is_put plan i = Bytes.unsafe_get plan.put i = '\001'

type conn = {
  fd : Unix.file_descr;
  dec : F.Decoder.t;
  mutable next : int;  (** next request index this connection sends *)
  mutable outstanding : int;
  mutable freed_at : int;  (** when a full window last freed a slot *)
}

let connect ~port n =
  Array.init n (fun i ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      { fd; dec = F.Decoder.create (); next = i; outstanding = 0; freed_at = 0 })

let close conns = Array.iter (fun c -> Proc.quiet Unix.close c.fd) conns

let write_buf fd buf =
  let s = Buffer.contents buf in
  (* SAFETY: write(2) only reads the bytes of this fresh string. *)
  Proc.write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

exception Dropped of string

(* Read what [c] has and hand each complete frame to [on_frame] with the
   receive time. *)
let receive rbuf c on_frame =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> raise (Dropped "server closed the connection")
  | n ->
      let ts = Telemetry.now_ns () in
      F.Decoder.feed c.dec rbuf 0 n;
      let rec frames () =
        match F.Decoder.next c.dec with
        | F.Need_more -> ()
        | F.Corrupt msg -> raise (Dropped msg)
        | F.Frame (id, tag, payload) ->
            on_frame ~ts id (F.parse_response ~tag payload);
            frames ()
      in
      frames ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let readable conns timeout =
  match Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout with
  | r, _, _ -> List.filter_map (fun fd -> Array.find_opt (fun c -> c.fd = fd) conns) r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

type outcome = {
  t0 : int;  (** absolute monotonic start, ns *)
  lat : int array;  (** scheduled send to response, ns; [-1] unanswered *)
  sent : int array;  (** actual send time, absolute ns; [0] never sent *)
  lateness : int array;  (** ns; [-1] never sent *)
  good : Bytes.t;  (** ['\001'] when answered correctly *)
  errors : int;  (** error responses *)
  wrong : int;  (** wrong values, wrong response kinds, stray ids *)
  unanswered : int;
  end_ns : int;  (** last response received, absolute *)
  cpu_frac : float;  (** this process's CPU time over the wall time *)
}

let span_names = [| "send"; "wait" |]

(* On a CPU of its own ({!Cpus}) the driver never sleeps; sharing one,
   it sleeps in select until this long before the next send is due. *)
let spin_ns = 20_000

let run ?spans ~conns ~depth ~drain_s plan =
  let n = Array.length plan.at in
  let nc = Array.length conns in
  let lat = Array.make n (-1) and sent = Array.make n 0 and lateness = Array.make n (-1) in
  let good = Bytes.make n '\000' in
  let errors = ref 0 and wrong = ref 0 and pending = ref n and end_ns = ref 0 in
  let buf = Buffer.create 4096 and rbuf = Bytes.create 65536 in
  let batch = Array.make depth 0 in
  let cpu0 = Layers.cpu_s () in
  let t0 = Telemetry.now_ns () + 1_000_000 in
  let due i = t0 + plan.at.(i) in
  let deadline = (if n = 0 then t0 else due (n - 1)) + int_of_float (drain_s *. 1e9) in
  let send_due c now =
    Buffer.clear buf;
    let k = ref 0 in
    let start = Telemetry.now_ns () in
    while c.next < n && c.outstanding < depth && due c.next <= now do
      let i = c.next in
      F.encode_request buf ~id:i
        (if is_put plan i then F.Put (plan.key.(i), Int64.of_int plan.value.(i))
         else F.Get plan.key.(i));
      batch.(!k) <- i;
      incr k;
      c.next <- i + nc;
      c.outstanding <- c.outstanding + 1
    done;
    if !k > 0 then begin
      write_buf c.fd buf;
      let ts = Telemetry.now_ns () in
      for j = 0 to !k - 1 do
        let i = batch.(j) in
        sent.(i) <- ts;
        lateness.(i) <- start - max (due i) c.freed_at;
        match spans with
        | Some sp when Spans.sampled i ->
            Spans.record sp ~kind:0 ~req:i ~start ~dur:(ts - start)
        | _ -> ()
      done
    end
  in
  let on_frame c ~ts id resp =
    if id < 0 || id >= n || lat.(id) >= 0 || sent.(id) = 0 then incr wrong
    else begin
      lat.(id) <- ts - due id;
      end_ns := ts;
      if c.outstanding = depth then c.freed_at <- ts;
      c.outstanding <- c.outstanding - 1;
      decr pending;
      (match spans with
      | Some sp when Spans.sampled id ->
          Spans.record sp ~kind:1 ~req:id ~start:sent.(id) ~dur:(ts - sent.(id))
      | _ -> ());
      let expected v =
        match v with
        | None -> plan.value.(id) < 0
        | Some v -> Int64.equal v (Int64.of_int plan.value.(id))
      in
      match resp with
      | Ok F.Ack when is_put plan id -> Bytes.set good id '\001'
      | Ok (F.Value v) when (not (is_put plan id)) && expected v ->
          Bytes.set good id '\001'
      | Ok (F.Err _) -> incr errors
      | Ok _ | Error _ -> incr wrong
    end
  in
  let rec loop () =
    let now = Telemetry.now_ns () in
    if !pending > 0 && now < deadline then begin
      Array.iter (fun c -> send_due c now) conns;
      let next_due =
        Array.fold_left
          (fun a c -> if c.next < n && c.outstanding < depth then min a (due c.next) else a)
          max_int conns
      in
      let now = Telemetry.now_ns () in
      let wait_ns =
        if Cpus.split then 0
        else if next_due = max_int then min 10_000_000 (deadline - now)
        else next_due - now - spin_ns
      in
      let timeout = if wait_ns > 0 then float_of_int wait_ns /. 1e9 else 0.0 in
      List.iter (fun c -> receive rbuf c (on_frame c)) (readable conns timeout);
      loop ()
    end
  in
  let wall0 = Telemetry.now_ns () in
  Cpus.pin_driver ();
  loop ();
  Cpus.release ();
  let wall = float_of_int (Telemetry.now_ns () - wall0) /. 1e9 in
  {
    t0;
    lat;
    sent;
    lateness;
    good;
    errors = !errors;
    wrong = !wrong;
    unanswered = !pending;
    end_ns = !end_ns;
    cpu_frac = (Layers.cpu_s () -. cpu0) /. wall;
  }

(* Closed-loop pipelined exchange, for the untimed read-back and the
   final [Stats]: sends every request of [reqs] (at most [depth]
   outstanding per connection) and hands each response to [check]
   together with the request's index.  Request [j] goes out with id
   [first_id + j], above every id of the timed run, so a straggling
   answer from that run cannot pass for one of these.  Returns how many
   went unanswered within [timeout_s]. *)
let exchange ~conns ~depth ~timeout_s ~first_id reqs check =
  let n = Array.length reqs in
  let nc = Array.length conns in
  let answered = Array.make n false in
  let pending = ref n in
  let buf = Buffer.create 4096 and rbuf = Bytes.create 65536 in
  Array.iteri
    (fun i c ->
      c.next <- i;
      c.outstanding <- 0)
    conns;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let on_frame c ~ts:_ id resp =
    let j = id - first_id in
    if j >= 0 && j < n && not answered.(j) then begin
      answered.(j) <- true;
      c.outstanding <- c.outstanding - 1;
      decr pending;
      check j resp
    end
  in
  while !pending > 0 && Unix.gettimeofday () < deadline do
    Array.iter
      (fun c ->
        Buffer.clear buf;
        while c.next < n && c.outstanding < depth do
          F.encode_request buf ~id:(first_id + c.next) reqs.(c.next);
          c.next <- c.next + nc;
          c.outstanding <- c.outstanding + 1
        done;
        if Buffer.length buf > 0 then write_buf c.fd buf)
      conns;
    List.iter (fun c -> receive rbuf c (on_frame c)) (readable conns 0.05)
  done;
  !pending
