#include "view/materialized_view.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "net/network.h"

namespace pjvm {

Result<MaterializedView> MaterializedView::Create(ParallelSystem* sys,
                                                  BoundView bound,
                                                  bool merged_layout) {
  TableDef def;
  def.name = bound.def().name;
  def.schema = bound.output_schema();
  def.kind = TableKind::kView;
  if (bound.output_partition_col() >= 0) {
    const std::string& pcol =
        def.schema.column(bound.output_partition_col()).name;
    def.partition = PartitionSpec::Hash(pcol);
    // Under the merged layout the co-clustered tree is the view's ordered
    // access path; a per-fragment index would just charge a second descent
    // per insert for a structure nothing reads.
    if (!merged_layout) {
      def.indexes.push_back(IndexSpec{pcol, /*clustered=*/false});
    }
  } else {
    def.partition = PartitionSpec::RoundRobin();
  }
  PJVM_RETURN_NOT_OK(sys->CreateTable(def));
  const TableId id = sys->catalog().IdOf(def.name);
  return MaterializedView(sys, std::move(bound), id);
}

int MaterializedView::DestinationOf(const Row& output_row) {
  if (bound_.output_partition_col() >= 0) {
    return sys_->HomeNodeForKey(output_row[bound_.output_partition_col()]);
  }
  // A global aggregate (no GROUP BY) keeps its single row at node 0.
  if (bound_.is_aggregate()) return 0;
  return sys_->HomeNodeForRow(*sys_->catalog().Find(table_id_), output_row);
}

Status MaterializedView::ApplyOutputs(uint64_t txn, int source_node,
                                      std::vector<Row> rows, bool is_delete,
                                      size_t* applied) {
  if (rows.empty()) return Status::OK();
  if (bound_.is_aggregate()) {
    return ApplyAggregateContributions(txn, source_node, std::move(rows),
                                       is_delete, applied);
  }
  std::map<int, std::vector<Row>> by_dest;
  if (is_delete && bound_.output_partition_col() < 0) {
    // Round-robin view: locate each victim by probing nodes in order.
    for (Row& row : rows) {
      int found = -1;
      for (int i = 0; i < sys_->num_nodes(); ++i) {
        NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
        const TableFragment* frag = sys_->node(i)->fragment(table_id_);
        sys_->cost().ChargeSearch(i);
        if (frag->FindExact(row).ok()) {
          found = i;
          break;
        }
      }
      if (found < 0) {
        return Status::NotFound("view '" + table_name() +
                                "': delete target missing: " + RowToString(row));
      }
      by_dest[found].push_back(std::move(row));
    }
  } else {
    for (Row& row : rows) {
      by_dest[DestinationOf(row)].push_back(std::move(row));
    }
  }
  for (auto& [dest, dest_rows] : by_dest) {
    PJVM_RETURN_NOT_OK(sys_->network().Send(
        source_node, dest, HopBytes(table_name(), dest_rows)));
    for (Row& row : dest_rows) {
      if (is_delete) {
        PJVM_RETURN_NOT_OK(sys_->node(dest)->DeleteExact(txn, table_id_, row));
        if (merged_hook_) {
          PJVM_RETURN_NOT_OK(merged_hook_(txn, dest, row, /*is_delete=*/true));
        }
      } else {
        if (merged_hook_) {
          PJVM_RETURN_NOT_OK(merged_hook_(txn, dest, row, /*is_delete=*/false));
        }
        PJVM_RETURN_NOT_OK(
            sys_->node(dest)->Insert(txn, table_id_, std::move(row)).status());
      }
      ++*applied;
    }
  }
  return Status::OK();
}

Status MaterializedView::ApplyAggregateContributions(uint64_t txn,
                                                     int source_node,
                                                     std::vector<Row> rows,
                                                     bool is_delete,
                                                     size_t* applied) {
  int width = bound_.StoredGroupWidth();
  std::map<int, std::vector<Row>> by_dest;
  for (Row& row : rows) by_dest[DestinationOf(row)].push_back(std::move(row));
  for (auto& [dest, dest_rows] : by_dest) {
    PJVM_RETURN_NOT_OK(sys_->network().Send(
        source_node, dest, HopBytes(table_name(), dest_rows)));
    Node* node = sys_->node(dest);
    TableFragment* frag = node->fragment(table_id_);
    for (Row& contribution : dest_rows) {
      if (escrow_hook_) {
        PJVM_ASSIGN_OR_RETURN(bool handled,
                              escrow_hook_(txn, dest, contribution, is_delete));
        if (handled) {
          ++*applied;
          continue;
        }
      }
      // Pin the group across this read-modify-write: without the group's X
      // lock taken BEFORE the probe, a concurrent transaction can fold the
      // group between our read of the old image and our DeleteExact of it,
      // turning the delete into a spurious NotFound (the hot-key aggregate
      // race). The id matches what DeleteExact/Insert acquire below, so the
      // re-acquisition there is free; grouped views use the partition
      // column's index-key id (the same one escrow V locks name), global
      // aggregates the fragment id.
      if (txn != kAutoCommitTxnId && sys_->config().enable_locking) {
        LockId group_lock =
            bound_.output_partition_col() >= 0
                ? LockId::IndexKey(
                      dest, table_id_, bound_.output_partition_col(),
                      contribution[bound_.output_partition_col()])
                : LockId::Table(dest, table_id_);
        PJVM_RETURN_NOT_OK(
            sys_->locks().Acquire(txn, group_lock, LockMode::kExclusive));
      }
      // Locate the current group row, if any.
      Row old_row;
      bool found = false;
      if (bound_.output_partition_col() >= 0) {
        // One SEARCH through the index on the partitioning group column,
        // then filter by the full group prefix.
        PJVM_ASSIGN_OR_RETURN(
            ProbeResult probe,
            node->IndexProbe(table_id_, bound_.output_partition_col(),
                             contribution[bound_.output_partition_col()]));
        for (Row& candidate : probe.rows) {
          if (std::equal(candidate.begin(), candidate.begin() + width,
                         contribution.begin())) {
            old_row = std::move(candidate);
            found = true;
            break;
          }
        }
      } else {
        // Global aggregate: at most one row, scan the (single-row) fragment.
        NodeLatchGuard latch(*node, LatchMode::kShared);
        sys_->cost().ChargeSearch(dest);
        frag->ForEach([&](LocalRowId, const Row& candidate) {
          old_row = candidate;
          found = true;
          return false;
        });
      }
      if (!found) {
        if (is_delete) {
          return Status::Internal("aggregate view '" + table_name() +
                                  "': delete for a missing group " +
                                  RowToString(contribution));
        }
        PJVM_RETURN_NOT_OK(
            node->Insert(txn, table_id_, std::move(contribution)).status());
        ++*applied;
        continue;
      }
      Row new_row = old_row;
      for (size_t i = width; i < contribution.size(); ++i) {
        new_row[i] = AddValues(new_row[i], contribution[i], is_delete);
      }
      PJVM_RETURN_NOT_OK(node->DeleteExact(txn, table_id_, old_row));
      int64_t count = new_row[bound_.StoredCountIndex()].AsInt64();
      if (count < 0) {
        return Status::Internal("aggregate view '" + table_name() +
                                "': negative group count");
      }
      if (count > 0) {
        PJVM_RETURN_NOT_OK(
            node->Insert(txn, table_id_, std::move(new_row)).status());
      }
      ++*applied;
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> EvaluateViewFromScratch(ParallelSystem* sys,
                                                 const BoundView& bound) {
  int n = bound.num_bases();
  // Connected join order starting from base 0 (Validate guarantees one).
  std::vector<bool> filled(n, false);
  std::vector<int> order = {0};
  filled[0] = true;
  while (static_cast<int>(order.size()) < n) {
    for (const BoundEdge& e : bound.bound_edges()) {
      int next = -1;
      if (filled[e.left_base] && !filled[e.right_base]) next = e.right_base;
      if (filled[e.right_base] && !filled[e.left_base]) next = e.left_base;
      if (next >= 0) {
        filled[next] = true;
        order.push_back(next);
        break;
      }
    }
  }

  // Each base is read in place (ParallelSystem::ForEachRow) and only the
  // columns the view needs are copied out. Tuples are stored flat, `width`
  // values per working tuple, so the join allocates no row until it emits
  // an output row. The flat stores are deques: small blocks rather than one
  // large buffer, because freeing a large (mmapped) buffer raises glibc's
  // dynamic mmap and trim thresholds for the whole process, after which the
  // executor workers' arenas keep their freed tops resident.
  const size_t width = static_cast<size_t>(bound.working_width());
  std::deque<Value> partials;
  const int b0 = order[0];
  {
    const std::vector<int>& cols = bound.needed_cols(b0);
    const size_t offset = static_cast<size_t>(bound.needed_offset(b0));
    sys->ForEachRow(bound.base_def(b0).name, [&](const Row& row) {
      if (!bound.RowPassesSelections(b0, row)) return;
      const size_t at = partials.size() + offset;
      partials.resize(partials.size() + width);
      for (size_t j = 0; j < cols.size(); ++j) partials[at + j] = row[cols[j]];
    });
  }

  std::vector<Row> outputs;
  Row working;  // scratch for OutputRow
  if (order.size() == 1) {
    // A single-base view has no join step: its seed tuples are the output.
    for (size_t p = 0; p < partials.size(); p += width) {
      working.assign(partials.begin() + p, partials.begin() + p + width);
      outputs.push_back(bound.OutputRow(working));
    }
  }
  std::fill(filled.begin(), filled.end(), false);
  filled[order[0]] = true;
  for (size_t step = 1; step < order.size(); ++step) {
    const int target = order[step];
    const bool last = step + 1 == order.size();
    // Edges between the target and filled bases; the first drives the hash
    // join, the rest are residual filters (as working-tuple index pairs).
    std::vector<BoundEdge> connecting;
    for (const BoundEdge& e : bound.bound_edges()) {
      if ((e.left_base == target && filled[e.right_base]) ||
          (e.right_base == target && filled[e.left_base])) {
        connecting.push_back(e);
      }
    }
    if (connecting.empty()) {
      return Status::Internal("evaluate: disconnected join order");
    }
    std::vector<std::pair<int, int>> residuals;
    for (size_t e = 1; e < connecting.size(); ++e) {
      const BoundEdge& edge = connecting[e];
      PJVM_ASSIGN_OR_RETURN(int li,
                            bound.WorkingIndex(edge.left_base, edge.left_col));
      PJVM_ASSIGN_OR_RETURN(int ri,
                            bound.WorkingIndex(edge.right_base, edge.right_col));
      residuals.emplace_back(li, ri);
    }
    const BoundEdge& drive = connecting[0];
    const bool target_left = drive.left_base == target;
    const int target_col = target_left ? drive.left_col : drive.right_col;
    const int source_base = target_left ? drive.right_base : drive.left_base;
    const int source_col = target_left ? drive.right_col : drive.left_col;
    PJVM_ASSIGN_OR_RETURN(int probe_idx,
                          bound.WorkingIndex(source_base, source_col));
    PJVM_ASSIGN_OR_RETURN(int key_pos, bound.NeededPos(target, target_col));

    // Build side: the target base's (filtered, needed) tuples, flat, with
    // each key's hash. Tuples chain by hash bucket; the chains are linked
    // back to front so a probe meets its matches in scan order.
    const std::vector<int>& cols = bound.needed_cols(target);
    const size_t part_width = cols.size();
    const size_t offset = static_cast<size_t>(bound.needed_offset(target));
    std::deque<Value> parts;
    std::vector<uint64_t> hashes;
    sys->ForEachRow(bound.base_def(target).name, [&](const Row& row) {
      if (!bound.RowPassesSelections(target, row)) return;
      for (int c : cols) parts.push_back(row[c]);
      hashes.push_back(row[target_col].Hash());
    });
    constexpr uint32_t kEnd = UINT32_MAX;
    size_t mask = 1;
    while (mask < 2 * hashes.size()) mask <<= 1;
    --mask;
    std::vector<uint32_t> head(mask + 1, kEnd);
    std::vector<uint32_t> next_match(hashes.size(), kEnd);
    for (size_t i = hashes.size(); i-- > 0;) {
      uint32_t& first = head[hashes[i] & mask];
      next_match[i] = first;
      first = static_cast<uint32_t>(i);
    }

    // Probe side, in partial order.
    std::deque<Value> next;
    for (size_t p = 0; p < partials.size(); p += width) {
      const Value& key = partials[p + probe_idx];
      const uint64_t hash = key.Hash();
      for (uint32_t i = head[hash & mask]; i != kEnd; i = next_match[i]) {
        auto part = parts.begin() + i * part_width;
        if (hashes[i] != hash || part[key_pos] != key) continue;
        auto value_at = [&](size_t idx) -> const Value& {
          return idx >= offset && idx < offset + part_width
                     ? part[idx - offset]
                     : partials[p + idx];
        };
        bool ok = true;
        for (const auto& [li, ri] : residuals) {
          ok = ok && value_at(li) == value_at(ri);
        }
        if (!ok) continue;
        if (last) {
          working.assign(partials.begin() + p, partials.begin() + p + width);
          std::copy(part, part + part_width, working.begin() + offset);
          outputs.push_back(bound.OutputRow(working));
        } else {
          next.insert(next.end(), partials.begin() + p,
                      partials.begin() + p + width);
          std::copy(part, part + part_width, next.end() - width + offset);
        }
      }
    }
    partials = std::move(next);
    filled[target] = true;
  }
  // Aggregate views store folded group rows, not raw join tuples.
  if (bound.is_aggregate()) return bound.FoldAggregates(outputs);
  return outputs;
}

}  // namespace pjvm
