(* In-memory spans for the traced run.

   A span is recorded around one call from the benchmark into a library
   layer: (name, start, end, parent, round/request id). Span names are
   "<layer>.<what>", so self time can be summed per layer. Each domain
   keeps its own stack, aggregates and raw span buffer; nothing is shared
   on the hot path. Raw spans are capped (aggregates are not) and written
   out when the run ends. *)

let enabled = ref false

type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type frame = { f_id : int; f_name : string; f_start : int; mutable f_child_ns : int }

let raw_cap = 200_000

type dom = {
  d_index : int;
  mutable seq : int;
  mutable stack : frame list;
  mutable rid : int;
  aggs : (string, agg) Hashtbl.t;
  mutable raw : (string * int * int * int * int * int) list;  (** name, id, start, end, parent, rid *)
  mutable raw_n : int;
  mutable dropped : int;
}

let registry : dom list ref = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_lock;
      let d =
        {
          d_index = List.length !registry;
          seq = 0;
          stack = [];
          rid = 0;
          aggs = Hashtbl.create 64;
          raw = [];
          raw_n = 0;
          dropped = 0;
        }
      in
      registry := d :: !registry;
      Mutex.unlock registry_lock;
      d)

let set_rid r = if !enabled then (Domain.DLS.get key).rid <- r

let finish d fr stop =
  let dur = stop - fr.f_start in
  d.stack <- (match d.stack with _ :: rest -> rest | [] -> []);
  let parent = match d.stack with p :: _ -> p.f_child_ns <- p.f_child_ns + dur; p.f_id | [] -> -1 in
  let a =
    match Hashtbl.find_opt d.aggs fr.f_name with
    | Some a -> a
    | None ->
      let a = { calls = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.add d.aggs fr.f_name a;
      a
  in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + (dur - fr.f_child_ns);
  if d.raw_n < raw_cap then begin
    d.raw <- (fr.f_name, fr.f_id, fr.f_start, stop, parent, d.rid) :: d.raw;
    d.raw_n <- d.raw_n + 1
  end
  else d.dropped <- d.dropped + 1

let span name f =
  if not !enabled then f ()
  else begin
    let d = Domain.DLS.get key in
    d.seq <- d.seq + 1;
    let fr = { f_id = (d.d_index lsl 40) lor d.seq; f_name = name; f_start = Meter.now_ns (); f_child_ns = 0 } in
    d.stack <- fr :: d.stack;
    match f () with
    | r ->
      finish d fr (Meter.now_ns ());
      r
    | exception e ->
      finish d fr (Meter.now_ns ());
      raise e
  end

(* Merged aggregates over every domain that recorded spans. *)
let aggregates () =
  let merged = Hashtbl.create 64 in
  List.iter
    (fun d ->
      Hashtbl.iter
        (fun name a ->
          match Hashtbl.find_opt merged name with
          | Some m ->
            m.calls <- m.calls + a.calls;
            m.total_ns <- m.total_ns + a.total_ns;
            m.self_ns <- m.self_ns + a.self_ns
          | None -> Hashtbl.add merged name { calls = a.calls; total_ns = a.total_ns; self_ns = a.self_ns })
        d.aggs)
    !registry;
  merged

let find name = Hashtbl.find_opt (aggregates ()) name

(* Mean duration of the named span in nanoseconds, if it was recorded. *)
let mean_ns name =
  match find name with Some a when a.calls > 0 -> Some (float_of_int a.total_ns /. float_of_int a.calls) | _ -> None

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time summed per layer, in nanoseconds. *)
let self_by_layer () =
  let by = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let l = layer_of name in
      Hashtbl.replace by l (a.self_ns + Option.value ~default:0 (Hashtbl.find_opt by l)))
    (aggregates ());
  by

let clear () =
  List.iter
    (fun d ->
      Hashtbl.reset d.aggs;
      d.raw <- [];
      d.raw_n <- 0;
      d.dropped <- 0)
    !registry

(* Tab-separated spans, oldest first per domain, then the per-name
   aggregates as comment lines. *)
let write path =
  let oc = open_out path in
  output_string oc "# name\tspan_id\tstart_ns\tend_ns\tparent_id\trid\n";
  List.iter
    (fun d ->
      List.iter
        (fun (name, id, start, stop, parent, rid) ->
          Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\n" name id start stop parent rid)
        (List.rev d.raw);
      if d.dropped > 0 then Printf.fprintf oc "# domain %d dropped %d spans beyond the cap\n" d.d_index d.dropped)
    !registry;
  Hashtbl.iter
    (fun name a -> Printf.fprintf oc "# agg %s calls=%d total_ns=%d self_ns=%d\n" name a.calls a.total_ns a.self_ns)
    (aggregates ());
  close_out oc
