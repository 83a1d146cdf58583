(* Child processes and the control pipes to them.

   Every workload runs in a forked child so that no workload inherits
   another's heap.  The parent never starts a domain or a thread, which
   is what keeps [Unix.fork] legal in it.  Messages are marshalled values
   behind an 8-byte length, written with one [write] each. *)

type t = {
  pid : int;
  rx : Unix.file_descr;  (** child -> parent *)
  tx : Unix.file_descr;  (** parent -> child *)
}

exception Timeout
exception Closed

(* Parent-side pipe ends and pids, so a later child can close what it
   inherited and the watchdog can kill what is still running. *)
let open_fds : Unix.file_descr list ref = ref []
let live : int list ref = ref []

let quiet f x = try f x with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise Closed
    | n -> read_exact fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len

let send fd v =
  let body = Marshal.to_bytes v [] in
  let msg = Bytes.create (8 + Bytes.length body) in
  Bytes.set_int64_le msg 0 (Int64.of_int (Bytes.length body));
  Bytes.blit body 0 msg 8 (Bytes.length body);
  write_all fd msg 0 (Bytes.length msg)

(* The caller states the message type at the call site.  No exchange in
   a run waits longer than a run may last. *)
let recv fd =
  let deadline = Unix.gettimeofday () +. 170.0 in
  let rec wait () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then raise Timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  let hdr = Bytes.create 8 in
  read_exact fd hdr 0 8;
  let len = Int64.to_int (Bytes.get_int64_le hdr 0) in
  let body = Bytes.create len in
  read_exact fd body 0 len;
  Marshal.from_bytes body 0

(* [spawn body] forks; the child runs [body ~rx ~tx] and exits without
   running the parent's [at_exit] handlers.  A child must not write to
   stdout: the parent's last stdout line is its result. *)
let spawn body =
  flush stdout;
  flush stderr;
  let p2c_r, p2c_w = Unix.pipe () in
  let c2p_r, c2p_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      List.iter (quiet Unix.close) !open_fds;
      open_fds := [];
      live := [];
      Unix.close p2c_w;
      Unix.close c2p_r;
      let code =
        match body ~rx:p2c_r ~tx:c2p_w with
        | () -> 0
        | exception e ->
            Printf.eprintf "bm child: %s\n%!" (Printexc.to_string e);
            2
      in
      flush stderr;
      Unix._exit code
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      open_fds := c2p_r :: p2c_w :: !open_fds;
      live := pid :: !live;
      { pid; rx = c2p_r; tx = p2c_w }

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Reap the child; [true] when it exited with code 0. *)
let wait t =
  List.iter (quiet Unix.close) [ t.rx; t.tx ];
  open_fds := List.filter (fun fd -> fd <> t.rx && fd <> t.tx) !open_fds;
  let status = waitpid t.pid in
  live := List.filter (( <> ) t.pid) !live;
  status = Unix.WEXITED 0

let kill t =
  quiet (Unix.kill t.pid) Sys.sigkill;
  ignore (wait t)

let kill_all () =
  List.iter (fun pid -> quiet (Unix.kill pid) Sys.sigkill) !live;
  List.iter (fun pid -> ignore (waitpid pid)) !live;
  live := []

(* Run [body] in a child that answers with one value, and reap it. *)
let call (body : unit -> 'a) : 'a =
  let c = spawn (fun ~rx:_ ~tx -> send tx (body ())) in
  match (recv c.rx : 'a) with
  | v ->
      ignore (wait c);
      v
  | exception e ->
      kill c;
      raise e

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
