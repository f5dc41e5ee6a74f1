(* Timing core of the benchmark: a monotonic nanosecond clock, growable
   sample buffers, nearest-rank percentiles, and the metric list a run
   reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_to_s ns = float_of_int ns *. 1e-9

(* Busy-wait until the monotonic clock reaches [due_ns]; the open loops pace
   themselves with this, sleeping first when the gap is long. *)
let wait_until due_ns =
  let gap = due_ns - now_ns () in
  if gap > 2_000_000 then Unix.sleepf (float_of_int (gap - 1_000_000) *. 1e-9);
  while now_ns () < due_ns do
    Domain.cpu_relax ()
  done

(* ---- sample buffers ---- *)

type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  Array.unsafe_set s.data s.n v;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; nan on an empty buffer. *)
let percentile s p =
  if s.n = 0 then nan
  else
    let a = sorted s in
    let rank = int_of_float (Float.ceil (p *. float_of_int s.n)) in
    a.(max 0 (min (s.n - 1) (rank - 1)))

let median s = percentile s 0.5

let median_of l =
  let s = samples () in
  List.iter (add s) l;
  median s

(* A percentile is only reported when at least ten samples lie beyond it. *)
let min_samples_for p = int_of_float (Float.ceil (10. /. (1. -. p)))

(* Time one call, in nanoseconds. *)
let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ---- process facts ---- *)

let status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.starts_with ~prefix:key line then
          Scanf.sscanf (String.sub line (String.length key) (String.length line - String.length key))
            " %d" float_of_int
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let max_rss_mb () = status_kb "VmHWM:" /. 1024.

(* ---- reported metrics ---- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 0) name unit_ value = { name; value; unit_; samples }

(* Tail percentile [p] of [s], robust to bursty stretches of the run: the
   samples (in time order) are cut into as many equal parts as leave ten
   samples beyond [p] in each, at most 16, and the median of the parts'
   percentiles is taken; with fewer than two such parts, the percentile of
   all samples. *)
let tail s p =
  let parts = min 16 (s.n / min_samples_for p) in
  if parts < 2 then percentile s p
  else
    let q = s.n / parts in
    median_of (List.init parts (fun i -> percentile { data = Array.sub s.data (i * q) q; n = q } p))

(* A latency pair: the median and the named tail percentile of [s], scaled
   from nanoseconds by [scale]. With fewer than ten samples beyond the tail
   the run notes it (see [short_tails]). *)
let latency ~p50 ~tail:name ~p ~unit_ ~scale s =
  let n = count s in
  [ metric ~samples:n p50 unit_ (median s *. scale); metric ~samples:n name unit_ (tail s p *. scale) ]

let short_tails metrics tails =
  List.filter_map
    (fun (name, p) ->
      match List.find_opt (fun m -> m.name = name) metrics with
      | Some m when m.samples < min_samples_for p ->
        Some (Printf.sprintf "%s has %d samples, fewer than the %d it needs" name m.samples
                (min_samples_for p))
      | _ -> None)
    tails
