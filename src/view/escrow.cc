#include "view/escrow.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "engine/node.h"
#include "obs/metrics_registry.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace pjvm {

namespace {

Counter* EscrowOpsCounter() {
  static Counter* c = MetricsRegistry::Global().counter("pjvm_escrow_ops");
  return c;
}

}  // namespace

void EscrowRegistry::AddView(TableId view, const BoundView* bound) {
  if (!bound->is_aggregate()) return;
  // The escrow lock identity is the partition-column index key — the one
  // the eager path X-locks and readers S-probe. A round-robin (global)
  // aggregate has no such key and keeps the eager path; the partitioning
  // column must sit inside the group prefix so a contribution row carries
  // the same key value as the stored group row.
  const int pcol = bound->output_partition_col();
  if (pcol < 0 || pcol >= bound->StoredGroupWidth()) return;
  std::lock_guard<std::mutex> lock(mu_);
  views_[view].bound = bound;
}

void EscrowRegistry::RemoveView(TableId view) {
  std::lock_guard<std::mutex> lock(mu_);
  views_.erase(view);
}

Row EscrowRegistry::FoldedRow(const BoundView& bound, const GroupState& gs) {
  const int width = bound.StoredGroupWidth();
  Row folded = gs.committed;
  // Ascending txn id: the in-flight bytes are a pure function of the
  // resident deltas, independent of arrival/abort history (floating-point
  // addition is not associative, so the order must be canonical).
  for (const auto& [txn, delta] : gs.deltas) {
    (void)txn;
    for (size_t i = width; i < folded.size(); ++i) {
      folded[i] = AddValues(folded[i], delta[i]);
    }
  }
  return folded;
}

Status EscrowRegistry::RewriteHeapLocked(TableId view, ViewState& vs,
                                         const GroupKey& key,
                                         GroupState& gs) {
  Node* node = sys_->node(key.first);
  PJVM_RETURN_NOT_OK(
      node->EscrowReplace(view, gs.lrid, FoldedRow(*vs.bound, gs)));
  const TableFragment* frag = node->fragment(view);
  gs.pages = frag->num_pages();
  gs.rows = frag->num_rows();
  return Status::OK();
}

void EscrowRegistry::MarkExclusiveLocked(uint64_t txn, TableId view,
                                         const GroupKey& key) {
  txn_eager_[txn].insert({view, key});
  if (CostTracker::TxnMeter* meter = CostTracker::ActiveMeter()) {
    meter->Add(CostTracker::TxnMeter::kVlockUpgrades);
  }
}

Result<bool> EscrowRegistry::Apply(uint64_t txn, int node_id, TableId view,
                                   const Row& contribution, bool is_delete) {
  if (txn == kAutoCommitTxnId) return false;
  const BoundView* bound = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto vit = views_.find(view);
    if (vit == views_.end()) return false;
    bound = vit->second.bound;
  }
  const int width = bound->StoredGroupWidth();
  const int count_idx = bound->StoredCountIndex();
  const int pcol = bound->output_partition_col();
  GroupKey key{node_id, Row(contribution.begin(), contribution.begin() + width)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto eit = txn_eager_.find(txn);
    if (eit != txn_eager_.end() && eit->second.count({view, key}) > 0) {
      // Post-escalation: this transaction already maintains the group
      // eagerly under its X lock.
      return false;
    }
  }

  // The escrow lock. Blocking is allowed here (no latch held): concurrent
  // incrementers hold compatible V locks and proceed; an eager writer's X
  // or a reader's S parks us (or kills us, by wait-die).
  const LockId lid = LockId::IndexKey(node_id, view, pcol, contribution[pcol]);
  PJVM_RETURN_NOT_OK(sys_->locks().Acquire(txn, lid, LockMode::kValue));
  sys_->txns().AddParticipant(txn, node_id);
  Node* node = sys_->node(node_id);

  bool need_birth = false;  // group absent: eager insert / missing-group error
  bool need_death = false;  // own count would go negative: eager replay
  Row synthetic;            // accumulated own delta for the death path
  {
    NodeLatchGuard latch(*node);
    std::lock_guard<std::mutex> lock(mu_);
    auto vit = views_.find(view);
    if (vit == views_.end()) return false;
    ViewState& vs = vit->second;
    auto git = vs.groups.find(key);
    if (git == vs.groups.end()) {
      // First journal touch of this group: seed the committed image from
      // the heap. Journal-absent means settled (commit/abort epilogues drop
      // empty states), and the row cannot move while we hold V — birth and
      // death both commit under X.
      PJVM_ASSIGN_OR_RETURN(ProbeResult probe,
                            node->IndexProbe(view, pcol, contribution[pcol],
                                             kAutoCommitTxnId));
      GroupState seed;
      bool found = false;
      for (size_t i = 0; i < probe.rows.size(); ++i) {
        if (std::equal(probe.rows[i].begin(), probe.rows[i].begin() + width,
                       contribution.begin())) {
          seed.committed = std::move(probe.rows[i]);
          seed.lrid = probe.rids[i];
          found = true;
          break;
        }
      }
      if (found) {
        git = vs.groups.emplace(key, std::move(seed)).first;
      } else {
        need_birth = true;
      }
    }
    if (!need_birth) {
      GroupState& gs = git->second;
      auto dit = gs.deltas.find(txn);
      if (dit == gs.deltas.end()) {
        // The contribution's own layout, [group..., __count, aggregates...],
        // with the count and every aggregate zeroed.
        Row zero = contribution;
        zero[count_idx] = Value{int64_t{0}};
        size_t at = static_cast<size_t>(count_idx) + 1;
        for (const auto& agg : bound->bound_aggregates()) {
          zero[at++] = agg.type == ValueType::kDouble ? Value{0.0}
                                                      : Value{int64_t{0}};
        }
        dit = gs.deltas.emplace(txn, std::move(zero)).first;
      }
      Row& own = dit->second;
      for (size_t i = width; i < contribution.size(); ++i) {
        own[i] = AddValues(own[i], contribution[i], is_delete);
      }
      if (own[count_idx].AsInt64() < 0) {
        // Conservative group-death rule: a transaction whose accumulated
        // count on this group goes negative leaves escrow entirely. Every
        // delta *resident* in the journal therefore keeps count >= 0, so
        // the committed count can never reach zero while the journal is
        // live — death is decided against settled state, under X.
        synthetic = own;
        gs.deltas.erase(dit);
        auto rit = txn_refs_.find(txn);
        if (rit != txn_refs_.end()) {
          rit->second.erase({view, key});
          if (rit->second.empty()) txn_refs_.erase(rit);
        }
        PJVM_RETURN_NOT_OK(RewriteHeapLocked(view, vs, key, gs));
        if (gs.Settled()) vs.groups.erase(git);
        need_death = true;
      } else {
        PJVM_RETURN_NOT_OK(RewriteHeapLocked(view, vs, key, gs));
        txn_refs_[txn].insert({view, key});
        EscrowOpsCounter()->Increment();
        if (CostTracker::TxnMeter* meter = CostTracker::ActiveMeter()) {
          meter->Add(CostTracker::TxnMeter::kEscrowOps);
        }
        return true;
      }
    }
  }  // latch and journal mutex released before the blocking upgrade

  // V→X escalation: the upgrade waits out (or dies behind, by wait-die)
  // every other V holder, so its grant implies sole ownership — their commit
  // and abort epilogues have run, the journal state for this group is
  // settled and dropped, and the heap row carries exactly the committed
  // image.
  PJVM_RETURN_NOT_OK(sys_->locks().Acquire(txn, lid, LockMode::kExclusive));
  {
    std::lock_guard<std::mutex> lock(mu_);
    MarkExclusiveLocked(txn, view, key);
  }
  if (need_birth) {
    // Group birth (or a missing-group delete, which the eager path reports
    // as the error it is): run the caller's eager fold under the X lock.
    return false;
  }
  (void)need_death;
  PJVM_RETURN_NOT_OK(
      ApplyEagerSynthetic(txn, node_id, view, *bound, synthetic));
  return true;
}

Status EscrowRegistry::ApplyEagerSynthetic(uint64_t txn, int node_id,
                                           TableId view,
                                           const BoundView& bound,
                                           const Row& synthetic) {
  // The escalated transaction's accumulated delta, replayed as one signed
  // contribution through the same probe / delete+insert sequence the eager
  // path runs — WAL records and write-set entries flow through the normal
  // Node entry points from here on.
  const int width = bound.StoredGroupWidth();
  const int pcol = bound.output_partition_col();
  Node* node = sys_->node(node_id);
  PJVM_ASSIGN_OR_RETURN(
      ProbeResult probe,
      node->IndexProbe(view, pcol, synthetic[pcol], kAutoCommitTxnId));
  Row old_row;
  bool found = false;
  for (Row& candidate : probe.rows) {
    if (std::equal(candidate.begin(), candidate.begin() + width,
                   synthetic.begin())) {
      old_row = std::move(candidate);
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::Internal("escrow view '" + bound.def().name +
                            "': escalated group vanished under the X lock " +
                            RowToString(synthetic));
  }
  Row new_row = old_row;
  for (size_t i = width; i < new_row.size(); ++i) {
    new_row[i] = AddValues(new_row[i], synthetic[i]);
  }
  PJVM_RETURN_NOT_OK(node->DeleteExact(txn, view, old_row));
  const int64_t count = new_row[bound.StoredCountIndex()].AsInt64();
  if (count < 0) {
    return Status::Internal("aggregate view '" + bound.def().name +
                            "': negative group count");
  }
  if (count > 0) {
    PJVM_RETURN_NOT_OK(node->Insert(txn, view, std::move(new_row)).status());
  }
  return Status::OK();
}

bool EscrowRegistry::HasState(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_refs_.count(txn_id) > 0 || txn_eager_.count(txn_id) > 0;
}

Status EscrowRegistry::OnPrepare(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto rit = txn_refs_.find(txn_id);
  if (rit == txn_refs_.end()) return Status::OK();
  for (const GroupRef& ref : rit->second) {
    auto vit = views_.find(ref.first);
    if (vit == views_.end()) continue;
    auto git = vit->second.groups.find(ref.second);
    if (git == vit->second.groups.end()) continue;
    auto dit = git->second.deltas.find(txn_id);
    if (dit == git->second.deltas.end()) continue;
    // The Wal is internally synchronized; the participant's prepare record
    // (appended and forced right after this hook) covers these appends.
    sys_->node(ref.second.first)->wal().Append(
        txn_id, LogRecordType::kEscrowDelta, ref.first, dit->second,
        vit->second.bound->StoredGroupWidth());
  }
  return Status::OK();
}

std::vector<TxnWrite> EscrowRegistry::OnCommitFold(uint64_t txn_id) {
  std::vector<TxnWrite> ops;
  std::lock_guard<std::mutex> lock(mu_);
  auto rit = txn_refs_.find(txn_id);
  if (rit == txn_refs_.end()) return ops;
  for (const GroupRef& ref : rit->second) {
    auto vit = views_.find(ref.first);
    if (vit == views_.end()) continue;
    auto git = vit->second.groups.find(ref.second);
    if (git == vit->second.groups.end()) continue;
    GroupState& gs = git->second;
    auto dit = gs.deltas.find(txn_id);
    if (dit == gs.deltas.end()) continue;
    // The commit point: fold this transaction's delta into the committed
    // image. Folds run in commit order (under the publish section with
    // MVCC), so the committed bytes equal the serial eager schedule in
    // that order. The version ops replace the previously published
    // committed image — snapshot readers never see in-flight increments.
    const int width = vit->second.bound->StoredGroupWidth();
    Row old_committed = gs.committed;
    for (size_t i = width; i < gs.committed.size(); ++i) {
      gs.committed[i] = AddValues(gs.committed[i], dit->second[i]);
    }
    gs.deltas.erase(dit);
    gs.finalizing.insert(txn_id);
    MvccOp del;
    del.kind = MvccOp::Kind::kDelete;
    del.row = std::move(old_committed);
    del.pages_after = gs.pages;
    del.rows_after = gs.rows;
    ops.push_back(
        TxnWrite{ref.second.first, ref.first, gs.lrid, std::move(del)});
    MvccOp ins;
    ins.kind = MvccOp::Kind::kInsert;
    ins.row = gs.committed;
    ins.pages_after = gs.pages;
    ins.rows_after = gs.rows;
    ops.push_back(
        TxnWrite{ref.second.first, ref.first, gs.lrid, std::move(ins)});
  }
  return ops;
}

Status EscrowRegistry::OnCommitFinalize(uint64_t txn_id) {
  std::vector<GroupRef> refs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto rit = txn_refs_.find(txn_id);
    if (rit != txn_refs_.end()) {
      refs.assign(rit->second.begin(), rit->second.end());
    }
  }
  for (const GroupRef& ref : refs) {
    Node* node = sys_->node(ref.second.first);
    NodeLatchGuard latch(*node);
    std::lock_guard<std::mutex> lock(mu_);
    auto vit = views_.find(ref.first);
    if (vit == views_.end()) continue;
    auto git = vit->second.groups.find(ref.second);
    if (git == vit->second.groups.end()) continue;
    GroupState& gs = git->second;
    gs.finalizing.erase(txn_id);
    // Re-derive the heap bytes from the new committed image (still under
    // our own V lock): the settled value must be a pure function of the
    // fold order, not of which concurrent deltas were resident when the
    // row was last rewritten.
    PJVM_RETURN_NOT_OK(RewriteHeapLocked(ref.first, vit->second, ref.second, gs));
    if (gs.Settled()) vit->second.groups.erase(git);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ClearTxnLocked(txn_id);
  return Status::OK();
}

void EscrowRegistry::OnAbort(uint64_t txn_id) {
  std::vector<GroupRef> refs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto rit = txn_refs_.find(txn_id);
    if (rit == txn_refs_.end() && txn_eager_.count(txn_id) == 0) return;
    if (rit != txn_refs_.end()) {
      refs.assign(rit->second.begin(), rit->second.end());
    }
  }
  for (const GroupRef& ref : refs) {
    Node* node = sys_->node(ref.second.first);
    NodeLatchGuard latch(*node);
    std::lock_guard<std::mutex> lock(mu_);
    auto vit = views_.find(ref.first);
    if (vit == views_.end()) continue;
    auto git = vit->second.groups.find(ref.second);
    if (git == vit->second.groups.end()) continue;
    GroupState& gs = git->second;
    // Rollback is a drop, never a subtraction: the heap is restored to
    // committed ⊕ remaining deltas — exact committed-derived bytes even
    // for doubles, where (x + d) - d need not equal x.
    gs.deltas.erase(txn_id);
    gs.finalizing.erase(txn_id);
    RewriteHeapLocked(ref.first, vit->second, ref.second, gs).Check();
    if (gs.Settled()) vit->second.groups.erase(git);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ClearTxnLocked(txn_id);
}

void EscrowRegistry::ClearTxnLocked(uint64_t txn_id) {
  txn_refs_.erase(txn_id);
  txn_eager_.erase(txn_id);
}

void EscrowRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [view, vs] : views_) {
    (void)view;
    vs.groups.clear();
  }
  txn_refs_.clear();
  txn_eager_.clear();
}

Status EscrowRegistry::CheckConsistent() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [view, vs] : views_) {
    if (!vs.groups.empty()) {
      return Status::Internal(
          "escrow journal for view '" + vs.bound->def().name + "' holds " +
          std::to_string(vs.groups.size()) +
          " group(s) at a quiescent point (leaked in-flight state)");
    }
  }
  if (!txn_refs_.empty() || !txn_eager_.empty()) {
    return Status::Internal(
        "escrow journal holds per-transaction state at a quiescent point");
  }
  return Status::OK();
}

}  // namespace pjvm
