(* Bench-side spans for the traced run.  A deterministic 1-in-16 sample
   (by operation or request index) is kept in arrays allocated up front,
   so recording never allocates, and written out as JSON lines at the
   end.  Spans of one request share its [req] index. *)

let sample_every = 16
let sampled i = i land (sample_every - 1) = 0

type t = {
  names : string array;  (** span kinds, indexed by [kind] below *)
  kind : int array;
  req : int array;
  start : int array;  (** ns, absolute monotonic *)
  dur : int array;
  mutable len : int;
}

let create ~names ~capacity =
  let capacity = max 1 capacity in
  {
    names;
    kind = Array.make capacity 0;
    req = Array.make capacity 0;
    start = Array.make capacity 0;
    dur = Array.make capacity 0;
    len = 0;
  }

let record t ~kind ~req ~start ~dur =
  if t.len < Array.length t.kind then begin
    let i = t.len in
    t.kind.(i) <- kind;
    t.req.(i) <- req;
    t.start.(i) <- start;
    t.dur.(i) <- dur;
    t.len <- i + 1
  end

(* Durations of one span kind, in recording order. *)
let durations t ~kind =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if t.kind.(i) = kind then out := t.dur.(i) :: !out
  done;
  Array.of_list !out

let write t path =
  let t0 = if t.len > 0 then t.start.(0) else 0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"name\": %S, \"req\": %d, \"start_ns\": %d, \"dur_ns\": %d}\n"
          t.names.(t.kind.(i)) t.req.(i) (t.start.(i) - t0) t.dur.(i)
      done)
