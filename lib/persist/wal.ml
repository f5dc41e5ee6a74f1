open Smc_offheap

let magic = "SMCWAL01"

type sync_policy = Always | Every of int | Manual

type t = {
  path : string;
  name : string;
  oc : out_channel;
  sync : sync_policy;
  lock : Mutex.t;
  mutable buf : Bytes.t;
      (* one record, framed as Pio sections are: [len][crc][payload];
         reused for every record, guarded by [lock] *)
  mutable next_lsn : int;
  mutable unsynced : int;
  mutable obs : Smc_obs.t option; (* the attached collection's runtime counters *)
  mutable closed : bool;
}

let op_add = 1
let op_remove = 2
let op_store = 3
let op_txn_begin = 4
let op_txn_commit = 5

(* Fits an [add] record of a 24-word slot; wider layouts grow [buf]. *)
let initial_buf_bytes = 256

let oincr t c = match t.obs with Some o -> Smc_obs.incr o c | None -> ()

let create ?(sync = Every 256) ?(base = 0) ~path ~name () =
  (match sync with
  | Every n when n <= 0 -> invalid_arg "Wal.create: Every n requires n > 0"
  | _ -> ());
  let oc = open_out_bin path in
  output_string oc magic;
  let header = Buffer.create 64 in
  Pio.add_str header name;
  Pio.add_int header base;
  ignore (Pio.write_section oc header : int);
  (* Make the magic + header durable before handing the log out. Leaving
     them in the channel buffer (with [unsynced = 0], so [flush]/[close] on
     an empty log are no-ops) meant a crash after [create] could leave a
     file shorter than the magic on disk — which recovery treats as hard
     [Pio.Corrupt] instead of an empty log. *)
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  { path; name; oc; sync; lock = Mutex.create (); buf = Bytes.create initial_buf_bytes;
    next_lsn = base; unsynced = 0; obs = None; closed = false }

let sync_locked t =
  if t.unsynced > 0 then begin
    Out_channel.flush t.oc;
    Unix.fsync (Unix.descr_of_out_channel t.oc);
    t.unsynced <- 0;
    oincr t Smc_obs.c_persist_wal_syncs
  end

let apply_policy_locked t =
  match t.sync with
  | Always -> sync_locked t
  | Every n -> if t.unsynced >= n then sync_locked t
  | Manual -> ()

(* In-place record encoding, under [lock]: [start] makes room for a payload
   of [words] ints, [set] writes payload word [i], [finish] checksums the
   payload where it lies and writes header and payload with one [output].
   The bytes are those [Pio.write_section] would frame from the same ints. *)
let start t ~words =
  if t.closed then invalid_arg "Wal: log is closed";
  let need = 16 + (8 * words) in
  if Bytes.length t.buf < need then t.buf <- Bytes.create (max need (2 * Bytes.length t.buf))

let set t i v = Bytes.set_int64_le t.buf (16 + (8 * i)) (Int64.of_int v)

let finish t ~words =
  let len = 8 * words in
  Bytes.set_int64_le t.buf 0 (Int64.of_int len);
  Bytes.set_int64_le t.buf 8 (Int64.of_int (Crc32.digest t.buf ~pos:16 ~len));
  output t.oc t.buf 0 (16 + len);
  t.next_lsn <- t.next_lsn + 1;
  t.unsynced <- t.unsynced + 1;
  oincr t Smc_obs.c_persist_wal_appends

let set_ref t op r =
  let packed = Smc.Ref.to_packed r in
  set t 0 op;
  set t 1 (Constants.ref_entry packed);
  set t 2 (Constants.ref_inc packed)

let add_locked t sw r blk slot =
  start t ~words:(4 + sw);
  set_ref t op_add r;
  set t 3 sw;
  for w = 0 to sw - 1 do
    set t (4 + w) (Block.get_word blk ~slot ~word:w)
  done;
  finish t ~words:(4 + sw)

let remove_locked t r =
  start t ~words:3;
  set_ref t op_remove r;
  finish t ~words:3

let store_locked t r ~word ~value =
  start t ~words:5;
  set_ref t op_store r;
  set t 3 word;
  set t 4 value;
  finish t ~words:5

(* Record entry points lock and unlock by hand rather than through
   [Fun.protect], which would build a closure per record. *)
let unlock_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock t.lock;
  Printexc.raise_with_backtrace e bt

let log_add t (coll : Smc.Collection.t) r blk slot =
  Mutex.lock t.lock;
  match
    add_locked t coll.Smc.Collection.layout.Layout.slot_words r blk slot;
    apply_policy_locked t
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let log_remove t r =
  Mutex.lock t.lock;
  match
    remove_locked t r;
    apply_policy_locked t
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let append_store t r ~word ~value =
  Mutex.lock t.lock;
  match
    store_locked t r ~word ~value;
    apply_policy_locked t
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let flush t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> if not t.closed then sync_locked t)

let lsn t =
  Mutex.lock t.lock;
  let v = t.next_lsn in
  Mutex.unlock t.lock;
  v

let name t = t.name
let path t = t.path

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not t.closed then begin
        sync_locked t;
        close_out t.oc;
        t.closed <- true
      end)

let log_store t (coll : Smc.Collection.t) r ~word ~value =
  if not (Smc.Collection.mem coll r) then
    invalid_arg "Wal.log_store: reference is null or dead";
  if word < 0 || word >= coll.Smc.Collection.layout.Layout.slot_words then
    invalid_arg "Wal.log_store: word offset outside the layout";
  append_store t r ~word ~value

(* A committed transaction's batch: Txn_begin (carrying the declared op
   count), the body records, Txn_commit — appended under ONE mutex hold, so
   no bare append and no snapshot cut ([Snapshot.write] reads the LSN under
   this same mutex) can land inside the frame. The body uses the bare
   record encoders; replay distinguishes framed from bare records purely
   by position. *)
let log_txn t (coll : Smc.Collection.t) ~txn_id ops =
  let sw = coll.Smc.Collection.layout.Layout.slot_words in
  Mutex.lock t.lock;
  match
    start t ~words:3;
    set t 0 op_txn_begin;
    set t 1 txn_id;
    set t 2 (List.length ops);
    finish t ~words:3;
    List.iter
      (fun (op : Smc.Collection.logged_op) ->
        match op with
        | Smc.Collection.L_add (r, blk, slot) -> add_locked t sw r blk slot
        | Smc.Collection.L_remove r -> remove_locked t r
        | Smc.Collection.L_store (r, word, value) -> store_locked t r ~word ~value)
      ops;
    start t ~words:2;
    set t 0 op_txn_commit;
    set t 1 txn_id;
    finish t ~words:2;
    apply_policy_locked t
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let attach t (coll : Smc.Collection.t) =
  Smc.Collection.attach_wal coll
    {
      Smc.Collection.wh_name = t.name;
      wh_on_add = (fun r blk slot -> log_add t coll r blk slot);
      wh_on_remove = (fun r -> log_remove t r);
      (* the collection fires this inside the store's critical section with
         the row alive, so skip log_store's liveness precheck *)
      wh_on_store = (fun r ~word ~value -> append_store t r ~word ~value);
      wh_on_txn = (fun ~txn_id ops -> log_txn t coll ~txn_id ops);
    };
  t.obs <- Some coll.Smc.Collection.rt.Runtime.obs

let detach _t coll = Smc.Collection.detach_wal coll

(* ------------------------------------------------------------------ *)
(* Recovery *)

type record =
  | Add of { entry : int; inc : int; words : int array }
  | Remove of { entry : int; inc : int }
  | Store of { entry : int; inc : int; word : int; value : int }
  | Txn_begin of { txn_id : int; n_ops : int }
  | Txn_commit of { txn_id : int }

type log_info = {
  li_name : string;
  li_base : int;
  li_records : int;
  li_torn_dropped : int;
}

let parse_record (r : Pio.reader) =
  let op = Pio.get_int r in
  let record =
    if op = op_add then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      let n = Pio.get_int r in
      if n < 0 || n > 1 lsl 20 then Pio.corrupt "%s: implausible add width %d" r.Pio.what n;
      let words = Array.init n (fun _ -> Pio.get_int r) in
      Add { entry; inc; words }
    end
    else if op = op_remove then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      Remove { entry; inc }
    end
    else if op = op_store then begin
      let entry = Pio.get_int r in
      let inc = Pio.get_int r in
      let word = Pio.get_int r in
      let value = Pio.get_int r in
      Store { entry; inc; word; value }
    end
    else if op = op_txn_begin then begin
      let txn_id = Pio.get_int r in
      let n_ops = Pio.get_int r in
      if n_ops < 0 || n_ops > 1 lsl 30 then
        Pio.corrupt "%s: implausible transaction op count %d" r.Pio.what n_ops;
      Txn_begin { txn_id; n_ops }
    end
    else if op = op_txn_commit then begin
      let txn_id = Pio.get_int r in
      Txn_commit { txn_id }
    end
    else Pio.corrupt "%s: unknown record op %d" r.Pio.what op
  in
  Pio.expect_end r;
  record

(* A record that cannot be read intact *terminates* the log. If it reaches
   end-of-file it is a torn tail — the crash hit mid-append — and is
   silently discarded, exactly once. The same damage with further bytes
   behind it cannot be a torn append and is hard corruption. *)
let scan ~path ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let what = Printf.sprintf "WAL %s" path in
      let m = Bytes.create (String.length magic) in
      (try really_input ic m 0 (String.length magic)
       with End_of_file -> Pio.corrupt "%s: shorter than the magic" what);
      if not (String.equal (Bytes.to_string m) magic) then
        Pio.corrupt "%s: bad magic %S" what (Bytes.to_string m);
      let header, _ = Pio.read_section ic ~what:(what ^ " header") () in
      let li_name = Pio.get_str header in
      let li_base = Pio.get_int header in
      Pio.expect_end header;
      let records = ref 0 in
      let torn = ref 0 in
      let torn_tail () = torn := 1 in
      let rec go lsn =
        let start = pos_in ic in
        if start < size then begin
          if size - start < 16 then torn_tail ()
          else begin
            let header = Bytes.create 16 in
            really_input ic header 0 16;
            let len = Int64.to_int (Bytes.get_int64_le header 0) in
            let crc = Int64.to_int (Bytes.get_int64_le header 8) in
            if len < 0 || len > 1 lsl 30 then
              (* an implausible length field can't prove there are records
                 behind it: treat as a torn final append *)
              torn_tail ()
            else if size - (start + 16) < len then torn_tail ()
            else begin
              let payload = Bytes.create len in
              really_input ic payload 0 len;
              let actual = Crc32.digest payload ~pos:0 ~len in
              if actual <> crc then begin
                if start + 16 + len = size then torn_tail ()
                else
                  Pio.corrupt
                    "%s: record %d checksum mismatch (stored %08x, computed %08x) with \
                     records behind it"
                    what lsn crc actual
              end
              else begin
                let r = { Pio.bytes = payload; pos = 0; what = Printf.sprintf "%s record %d" what lsn } in
                f ~lsn (parse_record r);
                incr records;
                go (lsn + 1)
              end
            end
          end
        end
      in
      go li_base;
      { li_name; li_base; li_records = !records; li_torn_dropped = !torn })
