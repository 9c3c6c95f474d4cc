#ifndef PJVM_ENGINE_SYSTEM_H_
#define PJVM_ENGINE_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/node.h"
#include "engine/partitioner.h"
#include "net/network.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace pjvm {

/// \brief Construction parameters for a parallel system.
struct SystemConfig {
  /// The paper's L: number of data server nodes.
  int num_nodes = 4;
  /// Rows per heap page (drives page counts, hence sort-merge costs).
  int rows_per_page = 64;
  /// Memory budget in pages for external sorts (the paper's M).
  int sort_memory_pages = 100;
  /// Simulated device latency in nanoseconds per weighted I/O unit charged
  /// (0 = off). See CostTracker::SetIoStallNanos.
  uint64_t io_stall_ns = 0;
  /// Strict two-phase locking. Explicit transactions then take X locks on
  /// the index keys and rows they write and S locks on the keys they probe,
  /// released at commit/abort. Autocommit operations are not locked (they
  /// are atomic by themselves).
  bool enable_locking = false;
  /// Upper bound on one blocking lock wait. Conflicts resolve by wait-die:
  /// an older requester parks until the conflict clears or this expires
  /// (then aborts), a younger one aborts at once. 0 gives no-wait behaviour:
  /// every conflict aborts the requester immediately.
  int lock_wait_timeout_ms = 500;
  /// Maximum attempts for one maintenance transaction in
  /// ViewManager::ApplyDelta (>= 1): aborted attempts (wait-die kills,
  /// timeouts) are retried with exponential backoff until this budget is
  /// exhausted.
  int maintain_max_attempts = 8;
  /// Base backoff before attempt k+1: base * 2^(k-1) microseconds, with
  /// uniform jitter in [0, base) to break retry convoys.
  int maintain_retry_base_us = 100;
  /// Key-lock count per (transaction, fragment) at which the lock manager
  /// escalates the transaction's key locks on that fragment to one
  /// fragment-granularity lock — bulk maintenance trades key-level
  /// concurrency for a bounded lock table. 0 disables escalation.
  int lock_escalation_threshold = 256;
  /// Lock-free MVCC snapshot reads. When on, every fragment keeps an
  /// epoch-versioned copy-on-write snapshot (storage/mvcc.h): writers
  /// install versions under their existing X locks and publish them
  /// atomically at commit epoch, and the client read operators (SelectEq /
  /// SelectRange / ScanAll / RowCount, MaterializedView::Contents, the
  /// planning estimates of the maintainer and SQL EXPLAIN) read the
  /// snapshot at a pinned epoch — zero key locks, zero node latches,
  /// wait-free. Off (the default) is today's latch/lock read path, kept as
  /// the A/B baseline; single-threaded runs charge bit-identical costs
  /// either way.
  bool mvcc_reads = false;
  /// Simulated WAL force (fsync) latency in nanoseconds; 0 = forcing is
  /// free and appends are durable immediately (the default, and the
  /// behavior of every non-contention experiment). Wall-clock sleep only —
  /// never charged to the CostTracker.
  uint64_t wal_force_ns = 0;
  /// How long a per-node group-commit leader holds the force open so
  /// concurrent committers' appends join its round (only meaningful when
  /// wal_force_ns > 0; see Wal).
  int group_commit_window_us = 100;
  /// Heavy/light skew-adaptive maintenance (view/heavy_light.h). When on,
  /// ViewManager classifies each delta row by the estimated join fanout of
  /// its key values (equi-depth histograms over the neighbour columns):
  /// light rows take the normal eager per-tuple AR/GI/naive path, heavy rows
  /// are buffered in a per-(view, base) deferred delta and folded in batch —
  /// amortizing the hot-key probes and view writes, and cancelling
  /// insert/delete churn before it ever touches the view. Folding restores
  /// the eagerly-maintained contents exactly (tested byte-for-byte).
  /// Routing and folds are serialized per ViewManager; the scalable
  /// concurrent write path is heavy_light = off.
  bool heavy_light = false;
  /// Buffered heavy-delta rows per view at which a fold is triggered
  /// automatically (checked after each maintenance transaction commits).
  /// Folds also run when a delta arrives on a *different* base of the view
  /// (the deferral invariant requires it), on CheckAllConsistent, and on
  /// FoldAllDeferred. <= 0 folds only on those events.
  int deferred_fold_rows = 64;
  /// Merged co-clustered storage for the AR method (view/merged_storage.h,
  /// leanstore's MergedAdapter idiom). When on, each eligible AR-maintained
  /// view registers a per-node B+-tree whose composite key
  /// (join_key, source_tag, source_pk) interleaves the co-partitioned base
  /// rows, the foreign AR rows, and the view tuples for that join key; the
  /// cluster members then carry NO per-structure indexes, and a maintenance
  /// delta becomes one range descent plus in-range edits under one
  /// fragment-range lock instead of probes and key locks across several
  /// B+-trees. View contents are fingerprint-identical to the separate
  /// layout (tested); heap tables stay the recovery/MVCC source of truth and
  /// the merged structure is rebuilt from them in RecoverViews.
  bool merged_ar_storage = false;
  /// Escrow (value-lock) maintenance of aggregate join views
  /// (view/escrow.h). When on, eligible COUNT(*)/SUM views maintained
  /// immediately under locking route their group increments through a
  /// per-(node, view, group) escrow journal: concurrent maintenance
  /// transactions hold compatible V locks on the same group's index key and
  /// increment it in place, instead of serializing on X locks — the hot-key
  /// aggregate scaling `bench_contention escrow` measures. Group birth and
  /// death (the non-commutative edges) escalate V→X. Off (the default) is
  /// byte-for-byte the eager delete+insert path.
  bool escrow_aggregates = false;
  /// Turns on the global Tracer for this system's lifetime. Also switched on
  /// by the PJVM_TRACE environment variable ("1", or an output path).
  bool trace_enabled = false;
  /// Where the system exports the Chrome trace on destruction; empty = no
  /// export. A path-valued PJVM_TRACE sets this too.
  std::string trace_path;
};

/// \brief Transaction lifecycle hook for subsystems that keep per-txn side
/// state outside the transaction's write set (the escrow journal,
/// view/escrow.h), which otherwise serves undo, MVCC publish, the 2PC
/// participants and the release of reserved slots.
///
/// The system invokes the hook from every commit and abort path, so an
/// implementation is covered no matter which caller drives the transaction
/// (the ViewManager's maintenance-transaction runner or a direct caller):
///
///  - OnPrepare: inside Commit, right after the transaction enters
///    kPreparing and before the participants' prepare records are forced —
///    appended WAL records are covered by those forces.
///  - OnCommitFold: the commit point. With mvcc_reads it runs inside the
///    snapshot publish critical section and the version ops of its returned
///    writes are installed at the transaction's commit epoch, atomically
///    with the write set's; without MVCC it runs at the same program point.
///  - OnCommitFinalize: after the fold (and publish), before locks are
///    released — the last chance to rewrite heap rows under the
///    transaction's own locks.
///  - OnAbort: inside Abort, before undo/ReleaseAll — side state must be
///    rolled back before a successor can acquire the released locks.
class TxnHook {
 public:
  virtual ~TxnHook() = default;
  /// True if the hook has any state for `txn_id` (gates the commit calls).
  virtual bool HasState(uint64_t txn_id) const = 0;
  virtual Status OnPrepare(uint64_t txn_id) = 0;
  virtual std::vector<TxnWrite> OnCommitFold(uint64_t txn_id) = 0;
  virtual Status OnCommitFinalize(uint64_t txn_id) = 0;
  virtual void OnAbort(uint64_t txn_id) = 0;
};

/// \brief The shared-nothing parallel RDBMS: L nodes, an interconnect, a
/// catalog, a transaction coordinator, and a cost meter.
///
/// This is the substrate the paper assumes. It executes real partitioned
/// storage and real index maintenance while charging the cost model's
/// primitive operations, so experiments read both correct data and the
/// I/O/message counts the paper's analysis is about.
class ParallelSystem {
 public:
  explicit ParallelSystem(SystemConfig config);
  /// Joins the per-node worker threads before any node state is torn down.
  ~ParallelSystem();

  ParallelSystem(const ParallelSystem&) = delete;
  ParallelSystem& operator=(const ParallelSystem&) = delete;

  int num_nodes() const { return config_.num_nodes; }
  const SystemConfig& config() const { return config_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  CostTracker& cost() { return cost_; }
  Network& network() { return network_; }
  TxnManager& txns() { return txns_; }
  LockManager& locks() { return locks_; }
  SnapshotManager& snapshots() const { return snapshots_; }
  Node* node(int i) { return nodes_[i].get(); }
  const Node* node(int i) const { return nodes_[i].get(); }
  /// The per-node executor running this system's fan-out phases.
  NodeExecutor& executor() const { return *executor_; }

  /// Registers a table and creates its (empty) fragment on every node.
  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);

  /// Adds a secondary index to an existing table (catalog + every node's
  /// fragment, backfilling from current rows). No-op if an index on the
  /// column already exists.
  Status CreateIndexOn(const std::string& table, const std::string& column,
                       bool clustered);

  /// The node that owns `row` of `def` (hash partitioning), or the next
  /// round-robin node. Deterministic given insertion order.
  int HomeNodeForRow(const TableDef& def, const Row& row);
  /// The node owning `key` under hash partitioning on any column.
  int HomeNodeForKey(const Value& key) const {
    return NodeForKey(key, config_.num_nodes);
  }

  /// Inserts a row into its home node. No SEND is charged for the client →
  /// home-node hop (the paper's flows start with the tuple already at its
  /// node i).
  Status Insert(const std::string& table, Row row,
                uint64_t txn_id = kAutoCommitTxnId);
  /// Batch insert, the engine's one bulk write path. Every row is validated
  /// first, so an invalid row fails the call before anything is placed,
  /// written or logged. Rows are then placed in batch order (round-robin
  /// placement matches per-row Insert calls exactly), and each node's share
  /// becomes one Node::InsertRun task, so per-node lrids, WAL records and
  /// charges equal those of per-row Inserts. A failing run (a lock conflict
  /// in an explicit transaction) does not undo the other nodes' runs; the
  /// first failing node's status, in node order, is returned. With `gids`,
  /// reports each row's global row id in input order.
  Status InsertMany(const std::string& table, std::vector<Row>&& rows,
                    uint64_t txn_id = kAutoCommitTxnId,
                    std::vector<GlobalRowId>* gids = nullptr);
  /// InsertMany for a caller that keeps its rows: inserts copies.
  Status InsertMany(const std::string& table, const std::vector<Row>& rows,
                    uint64_t txn_id = kAutoCommitTxnId,
                    std::vector<GlobalRowId>* gids = nullptr);

  /// Global row id of one row equal to `row`, without modifying anything
  /// (charges one SEARCH at each probed node).
  Result<GlobalRowId> LocateExact(const std::string& table, const Row& row);

  /// Deletes one instance of `row` from its home node (hash partitioning)
  /// or searches all nodes (round-robin).
  Status DeleteExact(const std::string& table, const Row& row,
                     uint64_t txn_id = kAutoCommitTxnId);

  // Read operators. Each pins one ReadEpoch for its whole call, so every
  // node it touches reads the same image: the snapshot at one epoch with
  // mvcc_reads on, the live latched fragments otherwise (Node's read
  // primitives hold both images' work and charges).

  /// All rows of `table` across all nodes, uncharged.
  std::vector<Row> ScanAll(const std::string& table) const;
  /// Visits ScanAll's rows in place, in the same order, on the calling
  /// thread (uncharged): node by node under each node's shared latch, so
  /// `fn` must not write to the system.
  void ForEachRow(const std::string& table,
                  const std::function<void(const Row&)>& fn) const;
  size_t RowCount(const std::string& table) const;
  /// Heap bytes of `table` plus any storage overlays registered against it
  /// (a view's merged co-clustered tree reports its bytes on the owning
  /// view's storage line — see SetStorageOverlay).
  size_t TableBytes(const std::string& table) const;
  size_t TablePages(const std::string& table) const;

  /// Attributes extra storage to `table`'s TableBytes line: `bytes_fn` is
  /// invoked (unlatched — it must synchronize itself) on every TableBytes
  /// call for that table. Used by the merged storage layer so the ablation's
  /// byte counts stay honest about where the co-clustered tree's pages live.
  void SetStorageOverlay(const std::string& table,
                         std::function<size_t()> bytes_fn);
  void ClearStorageOverlay(const std::string& table);

  /// Rows with `column` = `key`. Routed to the single owning node when
  /// `column` is the partitioning column, otherwise fanned out to all nodes
  /// through the interconnect; costs are charged accordingly.
  ///
  /// With `mvcc_reads` on the read runs against an epoch snapshot — no key
  /// locks, no node latches — and `txn_id` is ignored. Otherwise an explicit
  /// `txn_id` takes the paper's S locks (index-key locks on a probe, a
  /// fragment S lock on a scan) and the fan-out runs inline on the calling
  /// thread so those acquires may block (executor workers must not).
  /// Every other read fans out on the executor.
  Result<std::vector<Row>> SelectEq(const std::string& table,
                                    const std::string& column,
                                    const Value& key,
                                    uint64_t txn_id = kAutoCommitTxnId);

  /// Rows with `column` in [lo, hi] (inclusive). Hash partitioning cannot
  /// route ranges, so every node is consulted: a B+-tree range scan where an
  /// index exists (one SEARCH to seek plus one FETCH per row delivered), a
  /// full scan (one FETCH per page) otherwise. Locking/snapshot behavior of
  /// `txn_id` as in SelectEq (an explicit transaction S-locks the whole
  /// fragment — coarse, but phantom-safe for ranges).
  Result<std::vector<Row>> SelectRange(const std::string& table,
                                       const std::string& column,
                                       const Value& lo, const Value& hi,
                                       uint64_t txn_id = kAutoCommitTxnId);

  /// Planning estimate: average rows per distinct `column` value of
  /// `table` across all nodes (1 when empty). Uncharged; reads the same
  /// image as the read operators, without copying rows when live.
  double EstimateFanout(const std::string& table, int column) const;
  /// Planning estimate: rows of `table` with `column` = `key`, exact from
  /// the index posting lists where `column` is indexed, EstimateFanout
  /// otherwise. Uncharged; allocation-free when live.
  double EstimateKeyFanout(const std::string& table, int column,
                           const Value& key) const;

  // --- Transactions (two-phase commit over the touched nodes) ---

  uint64_t Begin() { return txns_.Begin(); }
  /// Runs 2PC over the participants of the transaction's write set:
  /// PREPARE at each, durable coordinator decision, COMMIT at each; then
  /// publishes the write set's version ops and releases the slots its
  /// deletes reserved. A participant that fails to prepare aborts the
  /// transaction. Honors injected failure points; on an injected crash the
  /// transaction's fate is decided by what reached the logs, exactly as in
  /// recovery.
  Status Commit(uint64_t txn_id);
  /// Rolls back by undoing the write set in reverse order.
  Status Abort(uint64_t txn_id);

  // --- Crash / recovery ---

  /// Durably snapshots every node's fragments and truncates the WALs, so
  /// recovery replays only post-checkpoint work. Refused while any
  /// transaction is in flight.
  Status Checkpoint();

  /// Simulates losing all volatile state (fragments) on every node; the
  /// WALs, checkpoints, and the coordinator's decision log survive.
  /// In-flight transactions become aborted (presumed abort).
  void Crash();
  /// Rebuilds every fragment by replaying committed transactions from each
  /// node's WAL. Derived global-index tables contain row ids that are not
  /// stable across recovery; callers that maintain GIs rebuild them after
  /// this (see ViewManager::RecoverViews).
  Status Recover();

  /// Structural invariants on every node.
  Status CheckInvariants() const;

  /// Registers (or clears, with nullptr) the transaction lifecycle hook.
  /// One hook at most; the escrow journal registers itself here. The owner
  /// must clear it before being destroyed.
  void SetTxnHook(TxnHook* hook) { txn_hook_ = hook; }

 private:
  /// InsertMany's body: validates and places `rows`, then runs one
  /// Node::InsertRun per home node on the executor; each node's task builds
  /// its run with `take(i)` (a copy or a move of rows[i]).
  Status InsertRuns(const std::string& table, const std::vector<Row>& rows,
                    uint64_t txn_id, std::vector<GlobalRowId>* gids,
                    const std::function<Row(size_t)>& take);
  /// Pins the image this call's reads see on every node (see ReadEpoch):
  /// the nodes hold the snapshot manager exactly when mvcc_reads is on.
  ReadEpoch PinReadEpoch() const;
  /// Runs `read(node)` for every node: inline in node order for a live read
  /// in an explicit transaction (its S-lock acquires may block, which
  /// executor workers must not), on the executor otherwise. Each node's
  /// read is an `op` task span.
  Status FanOutRead(const ReadEpoch& epoch, uint64_t txn_id, const char* op,
                    const std::function<Status(int)>& read);

  /// Abort epilogue over a taken write set: hook rollback, undo (most
  /// recent write first), abort records, lock release, Forget.
  Status RollBack(uint64_t txn_id, const TxnWriteSet& write_set);
  /// Publishes a committed transaction's version ops — those of `writes`
  /// (their rows are moved out) and, if `hook_pending`, the hook's fold —
  /// as one delta per written fragment, all at one epoch, and piggybacks
  /// version GC.
  void PublishVersions(uint64_t txn_id, bool hook_pending,
                       std::vector<TxnWrite>& writes);
  /// Rebuilds every listed table's snapshot from its live fragments at a
  /// fresh epoch (recovery, index DDL — quiescent points).
  void ResetSnapshots(const std::vector<std::string>& tables);

  SystemConfig config_;
  Catalog catalog_;
  CostTracker cost_;
  TxnManager txns_;
  LockManager locks_;
  // Mutable: snapshots() hands it out from const contexts so a client can
  // pin a SnapshotScope around several reads.
  mutable SnapshotManager snapshots_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Round-robin placement counters by table id, bumped by every client
  // thread routing a row — guarded, unlike the rest of the catalog, because
  // placement happens on the hot write path.
  std::mutex round_robin_mu_;
  std::vector<uint64_t> round_robin_;
  // Storage overlays (table -> extra-bytes callback); guarded for the same
  // reason as round_robin_ — registration and reads can race.
  mutable std::mutex overlay_mu_;
  std::map<std::string, std::function<size_t()>> storage_overlays_;
  /// Transaction lifecycle hook (escrow journal); see SetTxnHook.
  TxnHook* txn_hook_ = nullptr;
  // Declared last: destroyed (joined) first, while nodes are still alive.
  std::unique_ptr<NodeExecutor> executor_;
};

}  // namespace pjvm

#endif  // PJVM_ENGINE_SYSTEM_H_
