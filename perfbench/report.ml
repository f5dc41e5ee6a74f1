(* What one workload run hands back: the metrics it measured, and the
   operations it attempted against those that failed a correctness gate. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable metrics : Meter.metric list;
  mutable notes : string list;
}

let create () = { attempted = 0; failed = 0; violations = []; metrics = []; notes = [] }

let attempt r n = r.attempted <- r.attempted + n

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.violations < 50 then r.violations <- msg :: r.violations

(* One checked operation: counted as attempted, and as failed unless [ok]. *)
let check r ok msg =
  attempt r 1;
  if not ok then fail r msg

let check_list r what violations =
  attempt r 1;
  List.iter (fun v -> fail r (what ^ ": " ^ v)) violations

let add_metrics r ms = r.metrics <- r.metrics @ ms
let note r s = r.notes <- s :: r.notes

(* Runs [setup] [reps] times and keeps the last result; the set-up time is
   the median. Earlier results are disposed and collected first, so their
   off-heap blocks are released before the next set-up starts. *)
let setup_median ~reps ~setup ~dispose =
  let times = Meter.samples () in
  let rec go i =
    Gc.full_major ();
    let st, ns = Meter.time_ns setup in
    Meter.add times (Meter.ns_to_s ns);
    if i = reps then st
    else begin
      dispose st;
      go (i + 1)
    end
  in
  let st = go 1 in
  (st, Meter.median times)

(* Rows compared as multisets: engines may emit groups in any order. *)
let same_rows a b = List.sort compare a = List.sort compare b
