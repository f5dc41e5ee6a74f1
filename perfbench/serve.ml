(* Workload [serve]: request traffic through the serving front-end over a
   two-shard key/value collection. About 100k keys, Zipf-skewed so the hot
   set fits in L2. One client connection sends an open loop at a fixed rate:
   mostly [Get], plus [Store], [Remove]/[Add] replaces, 4-key cross-shard
   [Txn_put] (two-phase commit) and a rare fan-out [Sum]. Each request is
   timed from when it was due, and every reply is checked against a
   client-side model. *)

module C = Smc.Collection
module F = Smc.Field
module Prng = Smc_util.Prng
module Sh = Smc_shard.Shard
module W = Smc_shard.Wire

let keys = 100_000
let shards = 2
let rate = 20_000 (* requests per second *)
let zipf_s = 0.99
let setup_reps = 10
let sessions = 10
let round_reqs = 256
let stream_min = 1 lsl 18

(* Request kinds of the pre-generated stream. *)
let r_get = 0
let r_store = 1
let r_remove = 2
let r_add = 3
let r_txn = 4
let r_sum = 5

type stream = {
  kind : int array;
  slot : int array;  (** the slot a single-key request names *)
  value : int array;
  txn : int array array;  (** the four slots of a [Txn_put] *)
  len : int;
}

(* Zipf(s) ranks over [keys], mapped to slots by a seeded permutation so
   the hot set differs per seed. Every sequence leaves all slots live:
   a remove is always followed by the add that refills its slot. *)
let stream seed =
  let g = Prng.create ~seed:(Int64.of_int ((seed * 977) + 11)) () in
  let cdf = Array.make keys 0. in
  let acc = ref 0. in
  for r = 0 to keys - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) zipf_s);
    cdf.(r) <- !acc
  done;
  let perm = Array.init keys Fun.id in
  Prng.shuffle g perm;
  let zipf () =
    let u = Prng.float g !acc in
    let lo = ref 0 and hi = ref (keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)
  in
  let kind = ref [] and slot = ref [] and value = ref [] and txn = ref [] and n = ref 0 in
  let push k s v t =
    kind := k :: !kind;
    slot := s :: !slot;
    value := v :: !value;
    txn := t :: !txn;
    incr n
  in
  let none = [||] in
  while !n < stream_min do
    let x = Prng.int g 10_000 in
    if x < 8000 then push r_get (zipf ()) 0 none
    else if x < 9000 then push r_store (zipf ()) (Prng.int g 1_000_000) none
    else if x < 9500 then begin
      let s = Prng.int g keys in
      push r_remove s 0 none;
      push r_add s (Prng.int g 1_000_000) none
    end
    else if x < 9999 then begin
      let rec distinct acc = if List.length acc = 4 then acc else
          let s = Prng.int g keys in distinct (if List.mem s acc then acc else s :: acc) in
      let ss = Array.of_list (distinct []) in
      Array.iter (fun s -> push r_remove s 0 none) ss;
      push r_txn 0 (Prng.int g 1_000_000) ss
    end
    else push r_sum 0 0 none
  done;
  let arr l = Array.of_list (List.rev l) in
  { kind = arr !kind; slot = arr !slot; value = arr !value; txn = arr !txn; len = !n }

(* Client-side model of every slot: its key is [slot], its routed
   reference and value are what the server last acknowledged. *)
type model = {
  m_shard : int array;
  m_packed : int array;
  m_value : int array;
  m_live : bool array;  (** false between a remove and the add that refills the slot *)
  mutable m_sum : int;
}

type st = {
  sh : Sh.t;
  mutable server : Smc_shard.Server.t;
  mutable client : Smc_shard.Client.t;
  m : model;
  sock : string;
}

let setup seed ~work_dir () =
  let sh = Smc_shard.Server.kv_shard ~shards () in
  let lay = Sh.layout sh in
  let fk = F.int lay "k" and fv = F.int lay "v" in
  let g = Prng.create ~seed:(Int64.of_int ((seed * 389) + 5)) () in
  let m =
    { m_shard = Array.make keys 0; m_packed = Array.make keys 0; m_value = Array.make keys 0; m_live = Array.make keys true; m_sum = 0 }
  in
  for k = 0 to keys - 1 do
    let v = Prng.int g 1_000_000 in
    let r = Sh.add sh ~key:k ~init:(fun b s -> F.set_int fk b s k; F.set_int fv b s v) in
    m.m_shard.(k) <- Sh.sref_shard r;
    m.m_packed.(k) <- Smc.Ref.to_packed (Sh.sref_ref r);
    m.m_value.(k) <- v;
    m.m_sum <- m.m_sum + v
  done;
  let sock = Filename.concat work_dir "serve.sock" in
  let server = Smc_shard.Server.start ~path:sock sh in
  let client = Smc_shard.Client.connect ~path:sock in
  { sh; server; client; m; sock }

let dispose st =
  Smc_shard.Client.close st.client;
  Smc_shard.Server.stop st.server

(* A fresh server and connection over the same shards. *)
let restart st =
  dispose st;
  st.server <- Smc_shard.Server.start ~path:st.sock st.sh;
  st.client <- Smc_shard.Client.connect ~path:st.sock

let request_of st s i =
  let m = st.m in
  let k = s.kind.(i) and sl = s.slot.(i) in
  if k = r_get then W.Get { shard = m.m_shard.(sl); packed = m.m_packed.(sl) }
  else if k = r_store then W.Store { shard = m.m_shard.(sl); packed = m.m_packed.(sl); value = s.value.(i) }
  else if k = r_remove then W.Remove { shard = m.m_shard.(sl); packed = m.m_packed.(sl) }
  else if k = r_add then W.Add { key = sl; value = s.value.(i) }
  else if k = r_txn then W.Txn_put (Array.to_list (Array.map (fun sl -> (sl, s.value.(i))) s.txn.(i)))
  else W.Sum

(* Checks one reply against the model and applies it; [None] when the
   reply is the one the model predicts. *)
let apply st s i (reply : W.reply) =
  let m = st.m in
  let k = s.kind.(i) and sl = s.slot.(i) and v = s.value.(i) in
  let set sl (shard, packed) v =
    m.m_shard.(sl) <- shard;
    m.m_packed.(sl) <- packed;
    m.m_sum <- m.m_sum + v;
    m.m_value.(sl) <- v;
    m.m_live.(sl) <- true
  in
  match reply with
  | W.Ok_pair (key, value) when k = r_get ->
    if key = sl && value = m.m_value.(sl) then None else Some (Printf.sprintf "Get of key %d read (%d, %d)" sl key value)
  | W.Ok_unit when k = r_store ->
    m.m_sum <- m.m_sum - m.m_value.(sl) + v;
    m.m_value.(sl) <- v;
    None
  | W.Ok_int 1 when k = r_remove ->
    m.m_sum <- m.m_sum - m.m_value.(sl);
    m.m_value.(sl) <- 0;
    m.m_live.(sl) <- false;
    None
  | W.Ok_pair (shard, packed) when k = r_add -> set sl (shard, packed) v; None
  | W.Ok_refs refs when k = r_txn && List.length refs = 4 ->
    List.iteri (fun j r -> set s.txn.(i).(j) r v) refs;
    None
  | W.Ok_int total when k = r_sum ->
    if total = m.m_sum then None else Some (Printf.sprintf "Sum read %d, model has %d" total m.m_sum)
  | W.Shed -> Some "request shed"
  | W.Err e -> Some ("error reply: " ^ e)
  | _ -> Some (Printf.sprintf "unexpected reply to a request of kind %d" k)

type out = {
  requests : Meter.samples;  (** ns from due time to reply, every request *)
  gets : Meter.samples;
  writes : Meter.samples;  (** Store, Remove and Add *)
  txns : Meter.samples;
  sums : Meter.samples;
  rounds : Meter.samples;  (** ns from the first due time to the last reply of [round_reqs] requests *)
  lateness : Meter.samples;
  mutable n : int;
  mutable failures : string list;
  mutable elapsed : float;
  mutable minor_words : float;
}

(* Open loop: the [q]th request of the window is due [q / rate] seconds
   after its start. Windows consume the stream from [first] on, so
   consecutive windows continue each other's sequences. *)
let fresh_out () =
    {
      requests = Meter.samples (); gets = Meter.samples (); writes = Meter.samples (); txns = Meter.samples ();
      sums = Meter.samples (); rounds = Meter.samples (); lateness = Meter.samples (); n = 0; failures = [];
      elapsed = 0.; minor_words = 0.;
    }

let window o st s ~seconds ~first =
  let period = 1_000_000_000 / rate in
  let total = int_of_float (seconds *. float_of_int rate) in
  let w0 = Gc.minor_words () in
  let start = Meter.now_ns () in
  let round_due = ref start in
  for q = 0 to total - 1 do
    let i = (first + q) mod s.len in
    let due = start + (q * period) in
    if q mod round_reqs = 0 then round_due := due;
    let req = request_of st s i in
    Meter.wait_until due;
    Meter.add o.lateness (float_of_int (Meter.now_ns () - due));
    Trace.set_rid o.n;
    let reply =
      try Trace.span "shard.request" (fun () -> Smc_shard.Client.request st.client req)
      with e -> W.Err (Printexc.to_string e)
    in
    let done_ = Meter.now_ns () in
    let lat = float_of_int (done_ - due) in
    Meter.add o.requests lat;
    let k = s.kind.(i) in
    Meter.add
      (if k = r_get then o.gets else if k = r_txn then o.txns else if k = r_sum then o.sums else o.writes)
      lat;
    if q mod round_reqs = round_reqs - 1 then Meter.add o.rounds (float_of_int (done_ - !round_due));
    (match apply st s i reply with None -> () | Some f -> o.failures <- f :: o.failures);
    o.n <- o.n + 1
  done;
  o.elapsed <- o.elapsed +. Meter.ns_to_s (Meter.now_ns () - start);
  o.minor_words <- o.minor_words +. (Gc.minor_words () -. w0);
  o

(* [n] sessions of equal length, each but the first against a restarted
   server and connection, so one run samples several placements of the
   client and server threads. *)
let run_sessions st s ~n ~seconds ~first =
  let o = fresh_out () in
  for i = 0 to n - 1 do
    if i > 0 then restart st;
    ignore (window o st s ~seconds:(seconds /. float_of_int n) ~first:(first + o.n) : out)
  done;
  o

(* Quiescent snapshot of every shard, then a timed restore; the restored
   rows must hold the model's values. *)
let recover st r ~work_dir =
  let dir = Filename.concat work_dir "serve-snap" in
  Sys.mkdir dir 0o755;
  ignore (Sh.snapshot st.sh ~dir : (Smc_persist.Snapshot.manifest * int) array);
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let res = Trace.span "persist.restore" (fun () -> Sh.restore ~dir ~name:(Sh.name st.sh) ~shards ()) in
  let secs = Meter.ns_to_s (Meter.now_ns () - t0) in
  let rs = res.Sh.r_shard in
  let lay = Sh.layout rs in
  let fk = F.int lay "k" and fv = F.int lay "v" in
  let live = Array.fold_left (fun n l -> if l then n + 1 else n) 0 st.m.m_live in
  let ok = ref (Sh.count rs = live) in
  for i = 0 to shards - 1 do
    let c = Sh.collection rs i in
    C.iter c ~f:(fun b sl ->
        let k = F.get_int fk b sl in
        if k < 0 || k >= keys || (not st.m.m_live.(k)) || F.get_int fv b sl <> st.m.m_value.(k) then ok := false)
  done;
  Report.check r !ok "recover: restored shards differ from the model";
  Array.iter Sys.remove (Array.map (Filename.concat dir) (Sys.readdir dir));
  Sys.rmdir dir;
  secs

let audits st r =
  for i = 0 to shards - 1 do
    let contexts = [ (Sh.collection st.sh i).C.ctx ] in
    Report.check_list r "audit" (Smc_check.Audit.check_once (Sh.runtime st.sh i) ~contexts);
    Report.check_list r "obs" (Smc_check.Obs_check.check (Sh.runtime st.sh i) ~contexts)
  done;
  Report.check_list r "shard obs" (Smc_check.Obs_check.check_shard (Sh.obs st.sh))

(* Traced only: the layers of one request, called in-process on the same
   keys — wire coding, shard execution of a Get, a 4-key transaction. *)
let layer_probe st s =
  let fk = F.int (Sh.layout st.sh) "k" in
  for i = 0 to 19_999 do
    let i = i mod s.len in
    if s.kind.(i) = r_get then begin
      let req = request_of st s i in
      let b = Trace.span "shard.wire_encode" (fun () -> W.encode_request req) in
      ignore (Trace.span "shard.wire_decode" (fun () -> W.decode_request b) : W.request);
      let sl = s.slot.(i) in
      let sref = { Sh.sr_shard = st.m.m_shard.(sl); sr_ref = Smc.Ref.of_packed st.m.m_packed.(sl) } in
      ignore (Trace.span "shard.exec_get" (fun () -> Sh.deref_opt st.sh sref) : _ option)
    end
  done;
  for t = 0 to 499 do
    ignore
      (Trace.span "shard.txn" (fun () ->
           Sh.transact st.sh (fun tx ->
               for j = 0 to 3 do
                 Sh.stage_add tx ~key:(keys + (4 * t) + j) ~init:(fun b sl -> F.set_int fk b sl (keys + (4 * t) + j))
               done))
        : Sh.txn_result)
  done

let run ~seed ~seconds ~trace ~work_dir =
  let r = Report.create () in
  let s = stream seed in
  let st, setup_s = Report.setup_median ~reps:setup_reps ~setup:(setup seed ~work_dir) ~dispose in
  (* Warm-up: one untimed second of the same traffic. *)
  let w = window (fresh_out ()) st s ~seconds:1.0 ~first:0 in
  List.iter (fun f -> Report.fail r ("serve warm-up: " ^ f)) w.failures;
  Report.attempt r w.n;
  (* Compact now, so no major-GC work left by set-up, checks or warm-up
     lands in the timed window. *)
  Gc.compact ();
  let srv = Sh.obs st.sh in
  let n = if trace then sessions / 2 else sessions in
  let o = run_sessions st s ~n ~seconds:(if trace then seconds /. 2. else seconds) ~first:w.n in
  List.iter (fun f -> Report.fail r ("serve: " ^ f)) o.failures;
  Report.attempt r o.n;
  let traced =
    if trace then begin
      let shard_obs () =
        List.fold_left Smc_obs.merge (Smc_obs.snapshot srv)
          (List.init shards (fun i -> Smc_obs.snapshot (Sh.runtime st.sh i).Smc_offheap.Runtime.obs))
      in
      let obs_a = shard_obs () and gc_a = Gc.quick_stat () in
      Trace.enabled := true;
      let t = run_sessions st s ~n ~seconds:(seconds /. 2.) ~first:(w.n + o.n) in
      let obs_b = shard_obs () in
      List.iter (fun f -> Report.fail r ("serve traced: " ^ f)) t.failures;
      Report.attempt r t.n;
      let spans = Layers.from_spans () @ Layers.self_shares () in
      Trace.enabled := false;
      let d = Smc_obs.diff obs_b obs_a in
      let writes = Meter.count t.writes + (4 * Meter.count t.txns) in
      Some
        (spans
        @ Layers.obs_metrics ~before:obs_a ~after:obs_b ~ops:writes
        @ Layers.gc_metrics ~before:gc_a ~after:(Gc.quick_stat ()) ~minor_words:t.minor_words ~ops:t.n
        @ [
            Meter.metric "shard.shed_ratio" "ratio"
              (Layers.ratio (Smc_obs.get d Smc_obs.c_srv_shed) (Smc_obs.get d Smc_obs.c_srv_requests));
            Meter.metric "gen.lateness_p99_ms" "ms" (Meter.percentile t.lateness 0.99 *. 1e-6);
            Layers.overhead_pct ~untraced:(Meter.median o.requests) ~traced:(Meter.median t.requests);
          ])
    end
    else None
  in
  dispose st;
  audits st r;
  Trace.enabled := trace;
  let recover_s = recover st r ~work_dir in
  if trace then begin
    layer_probe st s;
    Report.add_metrics r
      (List.filter
         (fun (m : Meter.metric) -> List.exists (fun p -> String.starts_with ~prefix:p m.Meter.name) [ "shard."; "persist." ])
         (Layers.from_spans ()))
  end;
  Trace.enabled := false;
  (match traced with
  | Some ms -> Report.add_metrics r ms
  | None ->
    let ms = 1e-6 and us = 1e-3 in
    Report.add_metrics r
      (Meter.latency ~p50:"round_p50_ms" ~tail:"round_p90_ms" ~p:0.90 ~unit_:"ms" ~scale:ms o.rounds
      @ [ Meter.metric ~samples:(Meter.count o.sums) "refresh_p50_ms" "ms" (Meter.median o.sums *. ms) ]
      @ Meter.latency ~p50:"write_p50_us" ~tail:"write_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.writes
      @ Meter.latency ~p50:"commit_p50_us" ~tail:"commit_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.txns
      @ Meter.latency ~p50:"lookup_p50_us" ~tail:"lookup_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.gets
      @ Meter.latency ~p50:"request_p50_us" ~tail:"request_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.requests
      @ [
          Meter.metric "ops_per_s" "1/s" (float_of_int o.n /. o.elapsed);
          Meter.metric "recover_s" "s" recover_s;
          Meter.metric "setup_s" "s" setup_s;
          Meter.metric "bytes_per_row" "B" (float_of_int (8 * Sh.memory_words st.sh) /. float_of_int (Sh.count st.sh));
          Meter.metric "max_rss_mb" "MB" (Meter.max_rss_mb ());
        ]);
    Report.note r
      (Printf.sprintf "open loop at %d requests/s; the client started requests up to %.3f ms late (p99)" rate
         (Meter.percentile o.lateness 0.99 *. 1e-6)));
  r
