#include "engine/system.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {

namespace {

std::vector<Row> ConcatInNodeOrder(std::vector<std::vector<Row>>& per_node) {
  std::vector<Row> rows;
  for (std::vector<Row>& part : per_node) {
    rows.insert(rows.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  return rows;
}

}  // namespace

ParallelSystem::ParallelSystem(SystemConfig config)
    : config_(config),
      cost_(config.num_nodes),
      network_(config.num_nodes, &cost_) {
  // PJVM_TRACE=1 enables tracing; any other non-"0" value is also taken as
  // the export path, so `PJVM_TRACE=/tmp/run.trace.json ./bench_x` needs no
  // code changes. Config fields win over the environment when set.
  if (const char* env = std::getenv("PJVM_TRACE");
      env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    config_.trace_enabled = true;
    if (std::string(env) != "1" && config_.trace_path.empty()) {
      config_.trace_path = env;
    }
  }
  if (config_.trace_enabled) {
    Tracer::Global().Enable();
    Tracer::Global().SetCurrentThreadName("coordinator");
  }
  cost_.SetIoStallNanos(config_.io_stall_ns);
  locks_.set_wait_timeout_ms(config_.lock_wait_timeout_ms);
  locks_.set_escalation_threshold(config_.lock_escalation_threshold);
  nodes_.reserve(config_.num_nodes);
  LockManager* locks = config_.enable_locking ? &locks_ : nullptr;
  SnapshotManager* snaps = config_.mvcc_reads ? &snapshots_ : nullptr;
  for (int i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, &cost_, &txns_, locks, snaps));
    nodes_.back()->wal().ConfigureForce(config_.wal_force_ns,
                                        config_.group_commit_window_us);
  }
  executor_ = std::make_unique<NodeExecutor>(config_.num_nodes);
}

ParallelSystem::~ParallelSystem() {
  executor_->Shutdown();
  // Workers are joined: the trace is quiescent and safe to export. An
  // unwritable path is not worth aborting a teardown over.
  if (config_.trace_enabled && !config_.trace_path.empty()) {
    Status st = Tracer::Global().ExportChromeTrace(config_.trace_path);
    if (!st.ok()) std::fprintf(stderr, "pjvm: %s\n", st.ToString().c_str());
  }
}

Status ParallelSystem::CreateTable(TableDef def) {
  PJVM_RETURN_NOT_OK(catalog_.AddTable(def));
  const TableDef* stored = *catalog_.Get(def.name);
  for (auto& node : nodes_) {
    Status st = node->CreateFragment(*stored, config_.rows_per_page);
    if (!st.ok()) {
      catalog_.DropTable(def.name).Check();
      return st;
    }
  }
  return Status::OK();
}

Status ParallelSystem::DropTable(const std::string& name) {
  const TableId id = catalog_.IdOf(name);
  PJVM_RETURN_NOT_OK(catalog_.DropTable(name));
  for (auto& node : nodes_) {
    PJVM_RETURN_NOT_OK(node->DropFragment(id));
  }
  return Status::OK();
}

int ParallelSystem::HomeNodeForRow(const TableDef& def, const Row& row) {
  if (def.partition.is_hash()) {
    int col = def.PartitionColumn();
    return HomeNodeForKey(row[col]);
  }
  std::lock_guard<std::mutex> lock(round_robin_mu_);
  if (def.id >= round_robin_.size()) round_robin_.resize(def.id + 1);
  return static_cast<int>(round_robin_[def.id]++ % config_.num_nodes);
}

Status ParallelSystem::Insert(const std::string& table, Row row,
                              uint64_t txn_id) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  PJVM_RETURN_NOT_OK(def->schema.ValidateRow(row));
  int target = HomeNodeForRow(*def, row);
  return nodes_[target]->Insert(txn_id, def->id, std::move(row)).status();
}

Result<GlobalRowId> ParallelSystem::LocateExact(const std::string& table,
                                                const Row& row) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  auto try_node = [&](int i) -> Result<GlobalRowId> {
    NodeLatchGuard latch(*nodes_[i], LatchMode::kShared);
    const TableFragment* frag = nodes_[i]->fragment(def->id);
    cost_.ChargeSearch(i);
    PJVM_ASSIGN_OR_RETURN(LocalRowId lrid, frag->FindExact(row));
    return GlobalRowId{i, lrid};
  };
  if (def->partition.is_hash()) {
    return try_node(HomeNodeForKey(row[def->PartitionColumn()]));
  }
  for (int i = 0; i < config_.num_nodes; ++i) {
    Result<GlobalRowId> found = try_node(i);
    if (found.ok()) return found;
    if (!found.status().IsNotFound()) return found;
  }
  return Status::NotFound("row not found in '" + table +
                          "' on any node: " + RowToString(row));
}

Status ParallelSystem::CreateIndexOn(const std::string& table,
                                     const std::string& column,
                                     bool clustered) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  if (def->HasIndexOn(column)) return Status::OK();
  PJVM_RETURN_NOT_OK(
      catalog_.AddIndexToTable(table, IndexSpec{column, clustered}));
  PJVM_ASSIGN_OR_RETURN(int col, def->schema.ColumnIndex(column));
  for (auto& node : nodes_) {
    PJVM_RETURN_NOT_OK(node->fragment(def->id)->CreateIndex(col, clustered));
  }
  // The snapshot base images carry index metadata; rebuild them so snapshot
  // reads pick the new access path (DDL is a quiescent point).
  if (config_.mvcc_reads) ResetSnapshots({table});
  return Status::OK();
}

Status ParallelSystem::InsertMany(const std::string& table,
                                  const std::vector<Row>& rows,
                                  uint64_t txn_id,
                                  std::vector<GlobalRowId>* gids) {
  return InsertRuns(table, rows, txn_id, gids,
                    [&rows](size_t i) { return rows[i]; });
}

Status ParallelSystem::InsertMany(const std::string& table,
                                  std::vector<Row>&& rows, uint64_t txn_id,
                                  std::vector<GlobalRowId>* gids) {
  return InsertRuns(table, rows, txn_id, gids,
                    [&rows](size_t i) { return std::move(rows[i]); });
}

Status ParallelSystem::InsertRuns(const std::string& table,
                                  const std::vector<Row>& rows,
                                  uint64_t txn_id,
                                  std::vector<GlobalRowId>* gids,
                                  const std::function<Row(size_t)>& take) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  for (const Row& row : rows) {
    PJVM_RETURN_NOT_OK(def->schema.ValidateRow(row));
  }
  // Place every row in the caller's thread: round-robin placement consumes
  // the per-table counter in batch order, exactly as a sequence of
  // single-row Inserts would.
  std::vector<std::vector<size_t>> positions(config_.num_nodes);
  for (size_t i = 0; i < rows.size(); ++i) {
    positions[HomeNodeForRow(*def, rows[i])].push_back(i);
  }
  std::vector<int> targets;
  for (int n = 0; n < config_.num_nodes; ++n) {
    if (!positions[n].empty()) targets.push_back(n);
  }
  // One run per home node, in batch order, so per-node local row ids, WAL
  // contents and cost charges do not depend on which thread runs it. Each
  // task takes its own rows, so copies are made on the node's thread.
  std::vector<std::vector<LocalRowId>> lrids(config_.num_nodes);
  PJVM_RETURN_NOT_OK(executor_->RunOnNodes(targets, [&](int n) -> Status {
    SpanGuard span("insert_batch", "task", n, &cost_);
    if (span.active()) {
      span.set_detail(table + " x" + std::to_string(positions[n].size()));
    }
    std::vector<Row> run;
    run.reserve(positions[n].size());
    for (size_t i : positions[n]) run.push_back(take(i));
    return nodes_[n]->InsertRun(txn_id, def->id, std::move(run),
                                gids != nullptr ? &lrids[n] : nullptr);
  }));
  if (gids != nullptr) {
    gids->assign(rows.size(), GlobalRowId{});
    for (int n : targets) {
      for (size_t k = 0; k < lrids[n].size(); ++k) {
        (*gids)[positions[n][k]] = GlobalRowId{n, lrids[n][k]};
      }
    }
  }
  return Status::OK();
}

Status ParallelSystem::DeleteExact(const std::string& table, const Row& row,
                                   uint64_t txn_id) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  if (def->partition.is_hash()) {
    int target = HomeNodeForRow(*def, row);
    return nodes_[target]->DeleteExact(txn_id, def->id, row);
  }
  // Round-robin table: the row can be anywhere; try each node.
  for (auto& node : nodes_) {
    Status st = node->DeleteExact(txn_id, def->id, row);
    if (st.ok()) return st;
    if (!st.IsNotFound()) return st;
  }
  return Status::NotFound("row not found in '" + table +
                          "' on any node: " + RowToString(row));
}

ReadEpoch ParallelSystem::PinReadEpoch() const {
  return ReadEpoch(nodes_.front()->snapshots());
}

Status ParallelSystem::FanOutRead(const ReadEpoch& epoch, uint64_t txn_id,
                                  const char* op,
                                  const std::function<Status(int)>& read) {
  if (epoch.live() && txn_id != kAutoCommitTxnId) {
    // Blocking S-lock acquires are only legal on the client thread, so a
    // live read in an explicit transaction runs inline in node order
    // (charges are identical to the worker fan-out — see ParallelEquivalence).
    for (int i = 0; i < config_.num_nodes; ++i) {
      SpanGuard span(op, "task", i, &cost_);
      PJVM_RETURN_NOT_OK(read(i));
    }
    return Status::OK();
  }
  // Fan-out: node 0 reads on the caller and every other node on its own
  // worker; callers concatenate in node order, matching a node loop exactly.
  return executor_->RunOnAllNodes([&](int i) {
    SpanGuard span(op, "task", i, &cost_);
    return read(i);
  });
}

std::vector<Row> ParallelSystem::ScanAll(const std::string& table) const {
  const TableId id = catalog_.IdOf(table);
  ReadEpoch epoch = PinReadEpoch();
  std::vector<std::vector<Row>> per_node(config_.num_nodes);
  executor_->RunOnAllNodes([&](int i) {
    nodes_[i]->ForEachRow(epoch, id,
                          [&](const Row& row) { per_node[i].push_back(row); });
    return Status::OK();
  }).Check();
  return ConcatInNodeOrder(per_node);
}

void ParallelSystem::ForEachRow(
    const std::string& table, const std::function<void(const Row&)>& fn) const {
  const TableId id = catalog_.IdOf(table);
  ReadEpoch epoch = PinReadEpoch();
  for (const auto& node : nodes_) node->ForEachRow(epoch, id, fn);
}

size_t ParallelSystem::RowCount(const std::string& table) const {
  const TableId id = catalog_.IdOf(table);
  ReadEpoch epoch = PinReadEpoch();
  size_t count = 0;
  for (const auto& node : nodes_) count += node->RowCount(epoch, id);
  return count;
}

double ParallelSystem::EstimateFanout(const std::string& table,
                                      int column) const {
  const TableId id = catalog_.IdOf(table);
  ReadEpoch epoch = PinReadEpoch();
  ColumnStats stats;
  for (const auto& node : nodes_) {
    stats += node->ColumnStatsOf(epoch, id, column);
  }
  double fanout = stats.AvgFanout();
  return fanout > 0.0 ? fanout : 1.0;
}

double ParallelSystem::EstimateKeyFanout(const std::string& table, int column,
                                         const Value& key) const {
  const TableId id = catalog_.IdOf(table);
  ReadEpoch epoch = PinReadEpoch();
  double total = 0.0;
  bool any_index = false;
  for (const auto& node : nodes_) {
    std::optional<size_t> matches = node->CountMatches(epoch, id, column, key);
    if (!matches.has_value()) continue;
    any_index = true;
    total += static_cast<double>(*matches);
  }
  return any_index ? total : EstimateFanout(table, column);
}

size_t ParallelSystem::TableBytes(const std::string& table) const {
  const TableId id = catalog_.IdOf(table);
  size_t bytes = 0;
  for (const auto& node : nodes_) {
    NodeLatchGuard latch(*node, LatchMode::kShared);
    const TableFragment* frag = node->fragment(id);
    if (frag != nullptr) bytes += frag->byte_size();
  }
  std::function<size_t()> overlay;
  {
    std::lock_guard<std::mutex> lock(overlay_mu_);
    auto it = storage_overlays_.find(table);
    if (it != storage_overlays_.end()) overlay = it->second;
  }
  // Invoked outside overlay_mu_ and the node latches: the callback latches
  // the nodes itself (lock order latch-after-overlay_mu_ would invert).
  if (overlay) bytes += overlay();
  return bytes;
}

void ParallelSystem::SetStorageOverlay(const std::string& table,
                                       std::function<size_t()> bytes_fn) {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  storage_overlays_[table] = std::move(bytes_fn);
}

void ParallelSystem::ClearStorageOverlay(const std::string& table) {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  storage_overlays_.erase(table);
}

size_t ParallelSystem::TablePages(const std::string& table) const {
  const TableId id = catalog_.IdOf(table);
  size_t pages = 0;
  for (const auto& node : nodes_) {
    NodeLatchGuard latch(*node, LatchMode::kShared);
    const TableFragment* frag = node->fragment(id);
    if (frag != nullptr) pages += frag->num_pages();
  }
  return pages;
}

Result<std::vector<Row>> ParallelSystem::SelectEq(const std::string& table,
                                                  const std::string& column,
                                                  const Value& key,
                                                  uint64_t txn_id) {
  // Client-scope span over the whole operation (the per-node "task" spans
  // below nest inside it); a driver's WorkloadTag lands in the span detail
  // and a tenant-labeled read counter.
  SpanGuard client_span("select_eq", "client");
  const WorkloadTag* tag = WorkloadTagScope::Current();
  if (tag != nullptr) {
    MetricsRegistry::Global()
        .counter("pjvm_client_reads",
                 {{"op", "point"}, {"tenant", tag->tenant}})
        ->Increment();
  }
  if (client_span.active()) {
    client_span.set_detail(tag != nullptr ? table + " tenant=" + tag->tenant
                                          : table);
  }
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  PJVM_ASSIGN_OR_RETURN(int col, def->schema.ColumnIndex(column));
  ReadEpoch epoch = PinReadEpoch();
  if (def->partition.is_hash() && def->partition.column == column) {
    std::vector<Row> out;
    PJVM_RETURN_NOT_OK(nodes_[HomeNodeForKey(key)]->SelectEq(
        epoch, txn_id, def->id, col, key, &out));
    return out;
  }
  std::vector<std::vector<Row>> per_node(config_.num_nodes);
  PJVM_RETURN_NOT_OK(FanOutRead(epoch, txn_id, "select_eq", [&](int i) {
    return nodes_[i]->SelectEq(epoch, txn_id, def->id, col, key,
                               &per_node[i]);
  }));
  return ConcatInNodeOrder(per_node);
}

Result<std::vector<Row>> ParallelSystem::SelectRange(const std::string& table,
                                                     const std::string& column,
                                                     const Value& lo,
                                                     const Value& hi,
                                                     uint64_t txn_id) {
  SpanGuard client_span("select_range", "client");
  const WorkloadTag* tag = WorkloadTagScope::Current();
  if (tag != nullptr) {
    MetricsRegistry::Global()
        .counter("pjvm_client_reads",
                 {{"op", "range"}, {"tenant", tag->tenant}})
        ->Increment();
  }
  if (client_span.active()) {
    client_span.set_detail(tag != nullptr ? table + " tenant=" + tag->tenant
                                          : table);
  }
  PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog_.Get(table));
  PJVM_ASSIGN_OR_RETURN(int col, def->schema.ColumnIndex(column));
  if (hi < lo) return std::vector<Row>{};
  // Hash partitioning cannot route a range: every node scans its own
  // fragment.
  ReadEpoch epoch = PinReadEpoch();
  std::vector<std::vector<Row>> per_node(config_.num_nodes);
  PJVM_RETURN_NOT_OK(FanOutRead(epoch, txn_id, "select_range", [&](int i) {
    return nodes_[i]->SelectRange(epoch, txn_id, def->id, col, lo, hi,
                                  &per_node[i]);
  }));
  return ConcatInNodeOrder(per_node);
}

Status ParallelSystem::Commit(uint64_t txn_id) {
  if (txn_id == kAutoCommitTxnId) return Status::OK();
  SpanGuard span("commit_2pc", "txn");
  if (span.active()) span.set_detail("txn " + std::to_string(txn_id));
  if (txns_.ShouldFailAt(FailurePoint::kBeforePrepare)) {
    Crash();
    return Status::Aborted("injected crash before prepare");
  }
  PJVM_RETURN_NOT_OK(txns_.MarkPreparing(txn_id));
  // Escrow journal (and any other txn hook) logs its logical records now,
  // before the prepare appends below, so each participant's prepare force
  // covers them (they precede the prepare in the same log).
  const bool hook_pending =
      txn_hook_ != nullptr && txn_hook_->HasState(txn_id);
  if (hook_pending) PJVM_RETURN_NOT_OK(txn_hook_->OnPrepare(txn_id));
  // The write set is complete: every participant, version op and reserved
  // slot below comes from this one list.
  TxnWriteSet write_set = txns_.TakeWriteSet(txn_id);
  // Phase 1: every participant durably prepares — the prepare force covers
  // the transaction's earlier data records on that node too (they precede
  // the prepare in the same log). Concurrent committers share one
  // group-commit force round per node. Phase-2 commit records need no force:
  // the commit decision lives in the coordinator (presumed abort), and
  // replay is gated by TxnManager::IsCommitted, not by commit records.
  const std::vector<int> participants(write_set.participants.begin(),
                                      write_set.participants.end());
  std::vector<uint64_t> prepare_lsns(config_.num_nodes, 0);
  for (int node_id : participants) {
    prepare_lsns[node_id] = nodes_[node_id]->wal().Append(
        txn_id, LogRecordType::kPrepare, kNoTable);
  }
  auto force = [&](int node_id) {
    return nodes_[node_id]->wal().Force(prepare_lsns[node_id]);
  };
  Status prepared = Status::OK();
  if (config_.wal_force_ns > 0) {
    // The prepares land on independent per-node logs, so their forces can
    // overlap — the textbook parallel phase 1: the caller forces the first
    // participant and the node workers force the rest.
    prepared = executor_->RunOnNodes(participants, force);
  } else {
    // Free forcing returns at once; a worker handoff would be pure overhead.
    for (int node_id : participants) {
      if (prepared.ok()) prepared = force(node_id);
    }
  }
  if (!prepared.ok()) {
    // A participant that cannot prepare votes no: the transaction aborts.
    PJVM_RETURN_NOT_OK(txns_.MarkAborted(txn_id));
    PJVM_RETURN_NOT_OK(RollBack(txn_id, write_set));
    return prepared;
  }
  if (txns_.ShouldFailAt(FailurePoint::kAfterPrepare)) {
    Crash();
    return Status::Aborted("injected crash after prepare (presumed abort)");
  }
  // Commit point: the coordinator's durable decision.
  PJVM_RETURN_NOT_OK(txns_.LogCommitDecision(txn_id));
  if (txns_.ShouldFailAt(FailurePoint::kAfterDecision)) {
    Crash();
    return Status::Aborted("injected crash after commit decision");
  }
  // Phase 2: participants learn the outcome.
  for (int node_id : participants) {
    nodes_[node_id]->wal().Append(txn_id, LogRecordType::kCommit, kNoTable);
  }
  // Version visibility follows the durable commit decision: a reader that
  // sees the new epoch sees only transactions recovery would also replay.
  // Published before lock release so a later writer of the same rows can
  // never publish at an earlier epoch than this transaction.
  if (config_.mvcc_reads) {
    // Folds the hook inside the publish section.
    PublishVersions(txn_id, hook_pending, write_set.writes);
  } else if (hook_pending) {
    txn_hook_->OnCommitFold(txn_id);  // version ops unused without MVCC
  }
  // The hook's deterministic heap rewrite runs after the fold/publish and
  // before lock release — the transaction's V locks still pin its groups,
  // and the node latches it takes are ordered after publish_mu is gone.
  if (hook_pending) PJVM_RETURN_NOT_OK(txn_hook_->OnCommitFinalize(txn_id));
  // The transaction can no longer abort, so the heap slots its deletes kept
  // reserved (for lrid-exact undo) are safe to recycle. One pass splits the
  // deletes by node; only nodes with one are latched.
  std::vector<std::vector<const TxnWrite*>> deletes(config_.num_nodes);
  for (const TxnWrite& write : write_set.writes) {
    if (write.op.kind == MvccOp::Kind::kDelete) {
      deletes[write.node].push_back(&write);
    }
  }
  for (int node_id : participants) {
    if (!deletes[node_id].empty()) {
      nodes_[node_id]->ReleaseReservedSlots(deletes[node_id]);
    }
  }
  locks_.ReleaseAll(txn_id);  // Strict 2PL: everything released at commit.
  // Working state is done; the durable commit decision survives in the
  // TxnManager's decision set until a checkpoint prunes it.
  txns_.Forget(txn_id);
  return Status::OK();
}

Status ParallelSystem::Abort(uint64_t txn_id) {
  if (txn_id == kAutoCommitTxnId) {
    return Status::InvalidArgument("cannot abort the autocommit pseudo-txn");
  }
  PJVM_RETURN_NOT_OK(txns_.MarkAborted(txn_id));
  return RollBack(txn_id, txns_.TakeWriteSet(txn_id));
}

Status ParallelSystem::RollBack(uint64_t txn_id, const TxnWriteSet& write_set) {
  // Escrow rollback first, before undo and strictly before ReleaseAll: a
  // successor acquiring the released V locks must see journal state with
  // this transaction's deltas gone (and the heap rows restored).
  if (txn_hook_ != nullptr) txn_hook_->OnAbort(txn_id);
  // Most recent write first. Undo re-occupies the slots the deletes kept
  // reserved, so there is nothing to release afterwards.
  for (auto it = write_set.writes.rbegin(); it != write_set.writes.rend();
       ++it) {
    PJVM_RETURN_NOT_OK(nodes_[it->node]->ApplyUndo(*it));
  }
  for (int node_id : write_set.participants) {
    nodes_[node_id]->wal().Append(txn_id, LogRecordType::kAbort, kNoTable);
  }
  locks_.ReleaseAll(txn_id);
  txns_.Forget(txn_id);
  return Status::OK();
}

Status ParallelSystem::Checkpoint() {
  if (txns_.HasActive()) {
    return Status::Aborted(
        "checkpoint refused: transactions are in flight (quiesce first)");
  }
  for (auto& node : nodes_) node->Checkpoint();
  // Every WAL is truncated: no surviving record can mention a pre-checkpoint
  // txn id, so the commit-decision set is prunable up to the id low-water
  // mark — the durable-state analogue of TxnManager::Forget.
  txns_.PruneCommittedBelow(txns_.next_txn_id());
  return Status::OK();
}

void ParallelSystem::Crash() {
  for (auto& node : nodes_) {
    // The unforced log tail is volatile: a crash loses it (only visible
    // when wal_force_ns > 0; with free forcing every append is durable).
    node->wal().DiscardUnforced();
    node->WipeFragments();
  }
  txns_.CrashAndRecover();
  locks_.Clear();
}

Status ParallelSystem::Recover() {
  for (auto& node : nodes_) {
    PJVM_RETURN_NOT_OK(node->RecreateFragments(catalog_, config_.rows_per_page));
    PJVM_RETURN_NOT_OK(node->RestoreCheckpoint());
  }
  Status replay_status = Status::OK();
  for (auto& node : nodes_) {
    node->wal().ReplayCommitted(
        [&](uint64_t txn_id) { return txns_.IsCommitted(txn_id); },
        [&](const LogRecord& rec) {
          // A dropped table's records are obsolete: the drop discarded its
          // data, and a table re-created under its name has a new id.
          if (catalog_.Find(rec.table) == nullptr) return;
          Status st = node->ApplyLogRecord(rec);
          if (!st.ok() && replay_status.ok()) replay_status = st;
        });
    PJVM_RETURN_NOT_OK(replay_status);
  }
  // Fragments were recreated with empty snapshot bases (no version ops are
  // recorded during replay); rebuild every snapshot from the recovered
  // rows. A reader at the new epoch sees exactly the committed state.
  if (config_.mvcc_reads) ResetSnapshots(catalog_.ListNames());
  return Status::OK();
}

void ParallelSystem::PublishVersions(uint64_t txn_id, bool hook_pending,
                                     std::vector<TxnWrite>& writes) {
  if (writes.empty() && !hook_pending) return;
  SpanGuard span("mvcc_publish", "txn");
  if (span.active()) {
    span.set_detail("txn " + std::to_string(txn_id) + ": " +
                    std::to_string(writes.size()) + " ops");
  }
  // One delta per written fragment, each preserving that fragment's op
  // execution order; all installed at a single epoch so the transaction
  // becomes visible atomically across nodes. Only the ops' rows move out:
  // each write's node, table, lrid and kind stay for the slot release.
  std::map<std::pair<int, TableId>, std::vector<MvccOp>> by_frag;
  for (TxnWrite& write : writes) {
    by_frag[{write.node, write.table}].push_back(std::move(write.op));
  }
  double published = 0;
  snapshots_.Publish([&](uint64_t epoch) {
    if (hook_pending) {
      // Escrow groups record no op-time writes; the hook folds its
      // committed images *inside* the publish critical section, so the
      // fold order across transactions equals their epoch order.
      for (TxnWrite& write : txn_hook_->OnCommitFold(txn_id)) {
        by_frag[{write.node, write.table}].push_back(std::move(write.op));
      }
    }
    for (auto& [where, frag_ops] : by_frag) {
      TableFragment* frag = nodes_[where.first]->fragment(where.second);
      if (frag == nullptr) continue;  // table dropped mid-transaction
      frag->MvccPublish(epoch, std::move(frag_ops));
      published += 1.0;
    }
  });
  if (published > 0) MvccVersionsLiveGauge()->Add(published);
  // Piggybacked GC: fold any written fragment whose chain is both long
  // enough and entirely below the minimum active read epoch.
  snapshots_.Fold([&](uint64_t watermark) {
    for (const auto& [where, frag_ops] : by_frag) {
      (void)frag_ops;
      TableFragment* frag = nodes_[where.first]->fragment(where.second);
      if (frag != nullptr) MvccFoldBelowWatermark(frag, watermark);
    }
  });
}

void ParallelSystem::ResetSnapshots(const std::vector<std::string>& tables) {
  double dropped = 0;
  snapshots_.Publish([&](uint64_t epoch) {
    for (auto& node : nodes_) {
      for (const std::string& name : tables) {
        TableFragment* frag = node->fragment(catalog_.IdOf(name));
        if (frag != nullptr) {
          dropped += static_cast<double>(frag->MvccResetFromLive(epoch));
        }
      }
    }
  });
  if (dropped > 0) MvccVersionsLiveGauge()->Add(-dropped);
}

Status ParallelSystem::CheckInvariants() const {
  for (const auto& node : nodes_) {
    PJVM_RETURN_NOT_OK(node->CheckInvariants());
  }
  return Status::OK();
}

}  // namespace pjvm
