(* Low-overhead runtime observability counters.

   One [t] is a set of monotonic event counters owned by one subsystem
   instance (a runtime, a domain pool). Each domain that touches the
   instance gets its own *stripe* — a padded int array reached through
   domain-local state — so hot-path increments are a plain load/store into
   domain-private memory: no atomics, no cross-domain cache-line sharing.
   Reads ([snapshot]) merge the stripes; they are exact at quiescent points
   (every writing domain parked or joined) and approximate otherwise, which
   is the same contract the invariant audit already has.

   Counters are process-visible through a registry of live instances
   ([process_snapshot]), so a bench run can attach one counter table to its
   artifact without threading instances through every layer. *)

(* Counter ids: dense ints so a stripe is one array and an increment is one
   indexed store. [counter] registers a name and returns the next id, so a
   counter is declared in one line here (plus its [.mli] entry); the
   declaration order below fixes the ids. *)

let registered = ref []
let n_registered = ref 0

let counter name =
  registered := name :: !registered;
  let id = !n_registered in
  incr n_registered;
  id

let c_allocs = counter "allocs" (* slot allocations handed out by Context.alloc *)
let c_frees = counter "frees" (* successful Context.free calls *)
let c_retires = counter "retires" (* retire_slot calls (limbo + quarantine) *)
let c_quarantines = counter "quarantines" (* slots quarantined at the incarnation bound *)
let c_slot_recycles = counter "slot_recycles" (* limbo slots reclaimed by the allocation scan *)
(* limbo slots discarded with dead compaction sources *)
let c_limbo_drops = counter "limbo_drops"
(* blocks minted, including compaction targets *)
let c_blocks_created = counter "blocks_created"
let c_fresh_blocks = counter "fresh_blocks" (* blocks minted by the allocator (queue was dry) *)
let c_rq_pushes = counter "rq_pushes" (* reclamation-queue pushes *)
let c_rq_pops = counter "rq_pops" (* reclamation-queue pops (block recycles) *)
let c_rq_dead_drops = counter "rq_dead_drops" (* dead blocks drained from the queue head *)
let c_rq_unqueues = counter "rq_unqueues" (* queued blocks pulled out by the compactor *)
let c_epoch_adv_ok = counter "epoch_adv_ok" (* successful Epoch.try_advance calls *)
let c_epoch_adv_fail = counter "epoch_adv_fail" (* failed Epoch.try_advance calls *)
let c_crit_enters = counter "crit_enters" (* outermost critical-section entries *)
let c_thread_registers = counter "thread_registers" (* epoch thread-slot registrations *)
(* epoch thread-slot releases (explicit + GC) *)
let c_thread_releases = counter "thread_releases"
let c_entries_minted = counter "entries_minted" (* never-used indirection entries bumped *)
(* indirection entries reused from free stores *)
let c_entries_recycled = counter "entries_recycled"
let c_entries_freed = counter "entries_freed" (* indirection entries returned for reuse *)
let c_compaction_passes = counter "compaction_passes" (* compaction passes that formed groups *)
let c_compaction_aborts = counter "compaction_aborts" (* passes aborted at an epoch boundary *)
let c_compaction_phases = counter "compaction_phases" (* compaction phase transitions *)
let c_groups_formed = counter "groups_formed"
let c_groups_skipped = counter "groups_skipped"
let c_objects_moved = counter "objects_moved"
let c_blocks_retired = counter "blocks_retired"
let c_reloc_helps = counter "reloc_helps" (* readers helping a relocation (§5.1 case c) *)
let c_reloc_bails = counter "reloc_bails" (* readers bailing an object out (§5.1 case b) *)
let c_pool_tasks = counter "pool_tasks" (* tasks submitted to a domain pool *)
let c_par_scans = counter "par_scans" (* parallel enumerations started *)
let c_par_workers = counter "par_workers" (* worker activations across parallel enumerations *)
let c_idx_inserts = counter "idx_inserts" (* entries inserted into hash indexes *)
let c_idx_probes = counter "idx_probes" (* index probe operations *)
let c_idx_hits = counter "idx_hits" (* validated (live) entries yielded by probes *)
let c_idx_stale = counter "idx_stale" (* stale entries observed (probe sightings + purges) *)
(* stale entries tombstoned or dropped by sweeps/rebuilds *)
let c_idx_tombstones = counter "idx_tombstones"
(* index rebuilds (load-factor or churn triggered) *)
let c_idx_rebuilds = counter "idx_rebuilds"
let c_persist_snapshots = counter "persist_snapshots" (* snapshot files written *)
(* bytes streamed into snapshot files *)
let c_persist_snapshot_bytes = counter "persist_snapshot_bytes"
(* collections restored from snapshot files *)
let c_persist_restores = counter "persist_restores"
(* bytes read back while restoring *)
let c_persist_restore_bytes = counter "persist_restore_bytes"
(* records appended to write-ahead logs *)
let c_persist_wal_appends = counter "persist_wal_appends"
(* fsync batches run by write-ahead logs *)
let c_persist_wal_syncs = counter "persist_wal_syncs"
(* records replayed during recovery *)
let c_persist_wal_replayed = counter "persist_wal_replayed"
(* torn final WAL records discarded at recovery *)
let c_persist_torn_drops = counter "persist_torn_drops"
let c_txn_begins = counter "txn_begins" (* transactions opened by Collection.txn *)
let c_txn_commits = counter "txn_commits" (* transactions committed (validation passed) *)
let c_txn_aborts = counter "txn_aborts" (* transactions explicitly aborted *)
let c_txn_conflicts = counter "txn_conflicts" (* commits refused by write-write validation *)
let c_txn_replayed = counter "txn_replayed" (* committed transactions re-applied at recovery *)
(* uncommitted transaction bodies discarded at recovery *)
let c_txn_replay_skips = counter "txn_replay_skips"
let c_txn_views = counter "txn_views" (* snapshot views opened *)
let c_txn_view_closes = counter "txn_view_closes" (* snapshot views closed *)
let c_bare_stores = counter "bare_stores" (* CSN-stamped in-place Collection.store writes *)
let c_vec_batches = counter "vec_batches" (* batches produced by vectorized SMC scans *)
let c_vec_batch_rows = counter "vec_batch_rows" (* rows gathered into those batches *)
let c_vec_filter_rows_in = counter "vec_filter_rows_in" (* rows entering vectorized filters *)
(* rows surviving vectorized filters *)
let c_vec_filter_rows_kept = counter "vec_filter_rows_kept"
(* rows cut by vectorized filters *)
let c_vec_filter_rows_dropped = counter "vec_filter_rows_dropped"
let c_cg_requests = counter "cg_requests" (* compiled-plan executions requested *)
let c_cg_compiles = counter "cg_compiles" (* plans compiled + dynlinked *)
let c_cg_cache_hits = counter "cg_cache_hits" (* requests served from the compiled-plan cache *)
let c_cg_fallbacks = counter "cg_fallbacks" (* requests that fell back to the Fuse engine *)
let c_shard_routes = counter "shard_routes" (* single operations routed to an owning shard *)
let c_shard_txns = counter "shard_txns" (* sharded transactions submitted for commit *)
let c_shard_txn_commits = counter "shard_txn_commits" (* sharded transactions committed *)
(* sharded transactions refused by validation *)
let c_shard_txn_conflicts = counter "shard_txn_conflicts"
(* committed transactions spanning > 1 shard *)
let c_shard_txn_multi = counter "shard_txn_multi"
let c_shard_fanouts = counter "shard_fanouts" (* fan-out scans merged across all shards *)
let c_srv_conns = counter "srv_conns" (* connections accepted by the serving loop *)
let c_srv_requests = counter "srv_requests" (* request frames decoded *)
let c_srv_replies = counter "srv_replies" (* requests answered with an ok frame *)
let c_srv_errors = counter "srv_errors" (* requests answered with an error frame *)
let c_srv_shed = counter "srv_shed" (* requests shed by admission control *)
let c_txt_adds = counter "txt_adds" (* rows appended to text-index pending logs *)
let c_txt_removes = counter "txt_removes" (* row removals observed by text indexes *)
let c_txt_probes = counter "txt_probes" (* text-index probe operations *)
let c_txt_candidates = counter "txt_candidates" (* candidate sightings surfaced by probes *)
let c_txt_hits = counter "txt_hits" (* validated (live, still-matching) candidates emitted *)
let c_txt_stale = counter "txt_stale" (* candidates whose ref no longer resolved *)
(* live candidates whose current text no longer matches *)
let c_txt_misses = counter "txt_misses"
let c_txt_dups = counter "txt_dups" (* candidates suppressed by per-probe deduplication *)
let c_txt_rebuilds = counter "txt_rebuilds" (* suffix-array merge-rebuilds *)
let c_txt_dropped = counter "txt_dropped" (* entries dropped (stale/dead) by rebuilds *)
(* materialized-view full builds (attach + invalidation recovery) *)
let c_mv_builds = counter "mv_builds"
let c_mv_adds = counter "mv_adds" (* +delta applications from row adds *)
let c_mv_removes = counter "mv_removes" (* -delta applications from row removes *)
let c_mv_stores = counter "mv_stores" (* remove+add delta applications from in-place stores *)
let c_mv_applied = counter "mv_applied" (* total deltas applied (= adds + removes + stores) *)
let c_mv_reads = counter "mv_reads" (* view read operations *)
let c_mv_hits = counter "mv_hits" (* reads served entirely from maintained state *)
(* reads that re-derived dirty groups by bounded re-scan *)
let c_mv_rescans = counter "mv_rescans"
(* whole-view invalidations (non-incrementalizable delta) *)
let c_mv_invalidations = counter "mv_invalidations"

let n_counters = !n_registered
let names = Array.of_list (List.rev !registered)

let name c = names.(c)

(* Runtime toggle. Off, increments cost one load+branch; the derived
   invariants only hold for instances whose whole life ran enabled, so the
   checker no-ops while disabled. SMC_OBS=0 turns counters off at start-up
   for overhead A/B runs. *)
let enabled =
  ref (match Sys.getenv_opt "SMC_OBS" with Some ("0" | "false") -> false | _ -> true)

(* A stripe is [pad | counters | pad]: the pads keep a stripe's hot words
   off the cache lines of whatever the allocator placed next to it. *)
let pad = 8

let stripe_len = pad + n_counters + pad

type t = {
  label : string;
  lock : Mutex.t; (* protects [stripes]; taken only on a domain's first use *)
  stripes : int array list ref;
  key : int array Domain.DLS.key;
}

let instances_lock = Mutex.create ()
let instances : t list ref = ref []

let create ?(label = "obs") () =
  let lock = Mutex.create () in
  let stripes = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = Array.make stripe_len 0 in
        Mutex.lock lock;
        stripes := s :: !stripes;
        Mutex.unlock lock;
        s)
  in
  let t = { label; lock; stripes; key } in
  Mutex.lock instances_lock;
  instances := t :: !instances;
  Mutex.unlock instances_lock;
  t

let incr t c =
  if !enabled then begin
    let s = Domain.DLS.get t.key in
    s.(pad + c) <- s.(pad + c) + 1
  end

let add t c n =
  if !enabled then begin
    let s = Domain.DLS.get t.key in
    s.(pad + c) <- s.(pad + c) + n
  end

type snapshot = { src : string; counts : int array }

let snapshot t =
  let counts = Array.make n_counters 0 in
  Mutex.lock t.lock;
  List.iter
    (fun s ->
      for c = 0 to n_counters - 1 do
        counts.(c) <- counts.(c) + s.(pad + c)
      done)
    !(t.stripes);
  Mutex.unlock t.lock;
  { src = t.label; counts }

let get s c = s.counts.(c)

let diff a b =
  { src = a.src; counts = Array.init n_counters (fun c -> a.counts.(c) - b.counts.(c)) }

let merge a b =
  { src = "merged"; counts = Array.init n_counters (fun c -> a.counts.(c) + b.counts.(c)) }

let process_snapshot () =
  Mutex.lock instances_lock;
  let ts = !instances in
  Mutex.unlock instances_lock;
  List.fold_left
    (fun acc t -> merge acc (snapshot t))
    { src = "process"; counts = Array.make n_counters 0 }
    ts

let to_table ?title ?(zeros = false) s =
  let title = match title with Some t -> t | None -> Printf.sprintf "Obs counters (%s)" s.src in
  let t = Smc_util.Table.create ~title ~columns:[ "counter"; "count" ] in
  for c = 0 to n_counters - 1 do
    if zeros || s.counts.(c) <> 0 then
      Smc_util.Table.add_row t [ names.(c); string_of_int s.counts.(c) ]
  done;
  t
