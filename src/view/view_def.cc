#include "view/view_def.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace pjvm {

const char* PredOpToString(PredOp op) {
  switch (op) {
    case PredOp::kEq:
      return "=";
    case PredOp::kNe:
      return "<>";
    case PredOp::kLt:
      return "<";
    case PredOp::kLe:
      return "<=";
    case PredOp::kGt:
      return ">";
    case PredOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool Compare(PredOp op, const Value& v, const Value& constant) {
  switch (op) {
    case PredOp::kEq:
      return v == constant;
    case PredOp::kNe:
      return v != constant;
    case PredOp::kLt:
      return v < constant;
    case PredOp::kLe:
      return v <= constant;
    case PredOp::kGt:
      return v > constant;
    case PredOp::kGe:
      return v >= constant;
  }
  return false;
}

}  // namespace

bool SelectionPred::Eval(const Value& v) const {
  return Compare(op, v, constant);
}

bool RowPassesPreds(const Row& row, const std::vector<BoundPred>& preds) {
  for (const BoundPred& bp : preds) {
    if (!Compare(bp.op, row[bp.col], bp.constant)) return false;
  }
  return true;
}

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
  }
  return "?";
}

std::string AggregateSpec::ToString() const {
  if (fn == AggFn::kCount) return "COUNT(*)";
  return std::string(AggFnToString(fn)) + "(" + column.ToString() + ")";
}

Result<int> JoinViewDef::BaseIndexOfAlias(const std::string& alias) const {
  for (size_t i = 0; i < bases.size(); ++i) {
    if (bases[i].alias == alias) return static_cast<int>(i);
  }
  return Status::NotFound("view '" + name + "': no base aliased '" + alias + "'");
}

std::string JoinViewDef::ToString() const {
  std::string out = "CREATE VIEW " + name + " AS SELECT ";
  if (projection.empty()) {
    out += "*";
  } else {
    for (size_t i = 0; i < projection.size(); ++i) {
      if (i > 0) out += ", ";
      out += projection[i].ToString();
    }
  }
  out += " FROM ";
  for (size_t i = 0; i < bases.size(); ++i) {
    if (i > 0) out += ", ";
    out += bases[i].table + " " + bases[i].alias;
  }
  out += " WHERE ";
  bool first = true;
  for (const JoinEdge& e : edges) {
    if (!first) out += " AND ";
    out += e.ToString();
    first = false;
  }
  for (const SelectionPred& p : selections) {
    if (!first) out += " AND ";
    out += p.ToString();
    first = false;
  }
  if (!group_by.empty() || !aggregates.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i].ToString();
    }
    out += " AGGREGATES ";
    for (size_t i = 0; i < aggregates.size(); ++i) {
      if (i > 0) out += ", ";
      out += aggregates[i].ToString();
    }
  }
  if (partition_on.has_value()) {
    out += " PARTITIONED ON " + partition_on->ToString();
  }
  return out;
}

namespace {

Status CheckColumnRef(const JoinViewDef& def, const Catalog& catalog,
                      const ColumnRef& ref, const char* what) {
  PJVM_ASSIGN_OR_RETURN(int base, def.BaseIndexOfAlias(ref.alias));
  PJVM_ASSIGN_OR_RETURN(const TableDef* table,
                        catalog.Get(def.bases[base].table));
  if (!table->schema.HasColumn(ref.column)) {
    return Status::InvalidArgument("view '" + def.name + "': " + what + " " +
                                   ref.ToString() + " names a column '" +
                                   ref.column + "' not in table '" +
                                   table->name + "'");
  }
  return Status::OK();
}

}  // namespace

Status JoinViewDef::Validate(const Catalog& catalog) const {
  if (name.empty()) {
    return Status::InvalidArgument("view name must be non-empty");
  }
  if (bases.empty()) {
    return Status::InvalidArgument("view '" + name + "' has no base relations");
  }
  std::set<std::string> aliases;
  std::set<std::string> tables;
  for (const BaseRef& base : bases) {
    if (!catalog.Has(base.table)) {
      return Status::NotFound("view '" + name + "': base table '" + base.table +
                              "' does not exist");
    }
    if (!aliases.insert(base.alias).second) {
      return Status::InvalidArgument("view '" + name + "': duplicate alias '" +
                                     base.alias + "'");
    }
    if (!tables.insert(base.table).second) {
      return Status::NotImplemented(
          "view '" + name + "': table '" + base.table +
          "' appears more than once (self-joins are not supported)");
    }
  }
  if (bases.size() >= 2 && edges.empty()) {
    return Status::InvalidArgument("view '" + name +
                                   "' joins multiple tables with no edge");
  }
  for (const JoinEdge& edge : edges) {
    PJVM_RETURN_NOT_OK(CheckColumnRef(*this, catalog, edge.left, "join edge"));
    PJVM_RETURN_NOT_OK(CheckColumnRef(*this, catalog, edge.right, "join edge"));
    if (edge.left.alias == edge.right.alias) {
      return Status::InvalidArgument("view '" + name + "': join edge " +
                                     edge.ToString() + " joins a base to itself");
    }
    // Equi-join endpoints must have comparable (identical) types.
    int lb = *BaseIndexOfAlias(edge.left.alias);
    int rb = *BaseIndexOfAlias(edge.right.alias);
    const TableDef* lt = *catalog.Get(bases[lb].table);
    const TableDef* rt = *catalog.Get(bases[rb].table);
    ValueType ltype = lt->schema.column(*lt->schema.ColumnIndex(edge.left.column)).type;
    ValueType rtype = rt->schema.column(*rt->schema.ColumnIndex(edge.right.column)).type;
    if (ltype != rtype) {
      return Status::InvalidArgument("view '" + name + "': join edge " +
                                     edge.ToString() + " compares " +
                                     ValueTypeToString(ltype) + " with " +
                                     ValueTypeToString(rtype));
    }
  }
  for (const SelectionPred& pred : selections) {
    PJVM_RETURN_NOT_OK(CheckColumnRef(*this, catalog, pred.column, "selection"));
  }
  for (const ColumnRef& ref : projection) {
    PJVM_RETURN_NOT_OK(CheckColumnRef(*this, catalog, ref, "projection"));
  }
  if (is_aggregate()) {
    if (!projection.empty()) {
      return Status::InvalidArgument(
          "view '" + name +
          "': aggregate views define their output via GROUP BY; the "
          "projection must be empty");
    }
    for (const ColumnRef& ref : group_by) {
      PJVM_RETURN_NOT_OK(CheckColumnRef(*this, catalog, ref, "group-by column"));
    }
    for (const AggregateSpec& agg : aggregates) {
      if (agg.fn == AggFn::kCount) continue;
      PJVM_RETURN_NOT_OK(
          CheckColumnRef(*this, catalog, agg.column, "aggregate column"));
      int base = *BaseIndexOfAlias(agg.column.alias);
      const TableDef* table = *catalog.Get(bases[base].table);
      ValueType type =
          table->schema.column(*table->schema.ColumnIndex(agg.column.column))
              .type;
      if (type == ValueType::kString) {
        return Status::InvalidArgument("view '" + name + "': cannot " +
                                       agg.ToString() + " over a STRING column");
      }
    }
    if (partition_on.has_value() &&
        std::find(group_by.begin(), group_by.end(), *partition_on) ==
            group_by.end()) {
      return Status::InvalidArgument(
          "view '" + name + "': an aggregate view's partitioning attribute "
          "must be one of its group-by columns");
    }
  } else if (!group_by.empty()) {
    return Status::InvalidArgument("view '" + name +
                                   "': GROUP BY requires at least one aggregate");
  }
  if (partition_on.has_value()) {
    PJVM_RETURN_NOT_OK(
        CheckColumnRef(*this, catalog, *partition_on, "partitioning attribute"));
    if (!is_aggregate() && !projection.empty() &&
        std::find(projection.begin(), projection.end(), *partition_on) ==
            projection.end()) {
      return Status::InvalidArgument(
          "view '" + name + "': partitioning attribute " +
          partition_on->ToString() + " must appear in the projection");
    }
  }
  // The join graph must be connected so every base can be reached from the
  // updated one during maintenance.
  std::vector<bool> reached(bases.size(), false);
  std::vector<int> frontier = {0};
  reached[0] = true;
  while (!frontier.empty()) {
    int cur = frontier.back();
    frontier.pop_back();
    for (const JoinEdge& edge : edges) {
      int lb = *BaseIndexOfAlias(edge.left.alias);
      int rb = *BaseIndexOfAlias(edge.right.alias);
      int other = -1;
      if (lb == cur && !reached[rb]) other = rb;
      if (rb == cur && !reached[lb]) other = lb;
      if (other >= 0) {
        reached[other] = true;
        frontier.push_back(other);
      }
    }
  }
  for (size_t i = 0; i < bases.size(); ++i) {
    if (!reached[i]) {
      return Status::InvalidArgument("view '" + name + "': base '" +
                                     bases[i].alias +
                                     "' is not connected to the join graph");
    }
  }
  return Status::OK();
}

Result<BoundView> BoundView::Bind(const JoinViewDef& def,
                                  const Catalog& catalog) {
  PJVM_RETURN_NOT_OK(def.Validate(catalog));
  BoundView bound;
  bound.def_ = def;
  int n = static_cast<int>(def.bases.size());
  bound.base_defs_.reserve(n);
  for (const BaseRef& base : def.bases) {
    PJVM_ASSIGN_OR_RETURN(const TableDef* table, catalog.Get(base.table));
    bound.base_defs_.push_back(*table);
  }

  // Resolve edges.
  for (const JoinEdge& edge : def.edges) {
    BoundEdge be;
    PJVM_ASSIGN_OR_RETURN(be.left_base, def.BaseIndexOfAlias(edge.left.alias));
    PJVM_ASSIGN_OR_RETURN(
        be.left_col,
        bound.base_defs_[be.left_base].schema.ColumnIndex(edge.left.column));
    PJVM_ASSIGN_OR_RETURN(be.right_base, def.BaseIndexOfAlias(edge.right.alias));
    PJVM_ASSIGN_OR_RETURN(
        be.right_col,
        bound.base_defs_[be.right_base].schema.ColumnIndex(edge.right.column));
    bound.bound_edges_.push_back(be);
  }

  // Resolve selections per base.
  bound.preds_.resize(n);
  for (const SelectionPred& pred : def.selections) {
    PJVM_ASSIGN_OR_RETURN(int base, def.BaseIndexOfAlias(pred.column.alias));
    BoundPred bp;
    PJVM_ASSIGN_OR_RETURN(
        bp.col, bound.base_defs_[base].schema.ColumnIndex(pred.column.column));
    bp.op = pred.op;
    bp.constant = pred.constant;
    bound.preds_[base].push_back(bp);
  }

  // Needed columns per base: projection (or all if SELECT *), group-by and
  // aggregate columns, join columns, selection columns, and the view
  // partitioning attribute.
  std::vector<std::set<int>> needed(n);
  if (def.projection.empty() && !def.is_aggregate()) {
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < bound.base_defs_[i].schema.num_columns(); ++c) {
        needed[i].insert(c);
      }
    }
  } else {
    for (const ColumnRef& ref : def.projection) {
      int base = *def.BaseIndexOfAlias(ref.alias);
      needed[base].insert(*bound.base_defs_[base].schema.ColumnIndex(ref.column));
    }
    for (const ColumnRef& ref : def.group_by) {
      int base = *def.BaseIndexOfAlias(ref.alias);
      needed[base].insert(*bound.base_defs_[base].schema.ColumnIndex(ref.column));
    }
    for (const AggregateSpec& agg : def.aggregates) {
      if (agg.fn == AggFn::kCount) continue;
      int base = *def.BaseIndexOfAlias(agg.column.alias);
      needed[base].insert(
          *bound.base_defs_[base].schema.ColumnIndex(agg.column.column));
    }
  }
  for (const BoundEdge& be : bound.bound_edges_) {
    needed[be.left_base].insert(be.left_col);
    needed[be.right_base].insert(be.right_col);
  }
  for (int i = 0; i < n; ++i) {
    for (const BoundPred& bp : bound.preds_[i]) needed[i].insert(bp.col);
  }
  if (def.partition_on.has_value()) {
    int base = *def.BaseIndexOfAlias(def.partition_on->alias);
    needed[base].insert(
        *bound.base_defs_[base].schema.ColumnIndex(def.partition_on->column));
  }

  bound.needed_cols_.resize(n);
  bound.needed_schemas_.resize(n);
  bound.needed_offsets_.resize(n);
  int offset = 0;
  for (int i = 0; i < n; ++i) {
    bound.needed_cols_[i].assign(needed[i].begin(), needed[i].end());
    bound.needed_schemas_[i] =
        bound.base_defs_[i].schema.Project(bound.needed_cols_[i]);
    bound.needed_offsets_[i] = offset;
    offset += static_cast<int>(bound.needed_cols_[i].size());
  }
  bound.working_width_ = offset;

  if (def.is_aggregate()) {
    // Stored row layout: [group columns..., __count, aggregate values...].
    std::vector<Column> out_cols;
    for (const ColumnRef& ref : def.group_by) {
      int base = *def.BaseIndexOfAlias(ref.alias);
      int full_col = *bound.base_defs_[base].schema.ColumnIndex(ref.column);
      PJVM_ASSIGN_OR_RETURN(int idx, bound.WorkingIndex(base, full_col));
      bound.group_indices_.push_back(idx);
      out_cols.push_back(
          Column{ref.ToString(),
                 bound.base_defs_[base].schema.column(full_col).type});
    }
    out_cols.push_back(Column{"__count", ValueType::kInt64});
    for (const AggregateSpec& agg : def.aggregates) {
      BoundAggregate ba;
      ba.fn = agg.fn;
      if (agg.fn == AggFn::kCount) {
        ba.working_index = -1;
        ba.type = ValueType::kInt64;
      } else {
        int base = *def.BaseIndexOfAlias(agg.column.alias);
        int full_col =
            *bound.base_defs_[base].schema.ColumnIndex(agg.column.column);
        PJVM_ASSIGN_OR_RETURN(ba.working_index,
                              bound.WorkingIndex(base, full_col));
        ba.type = bound.base_defs_[base].schema.column(full_col).type;
      }
      out_cols.push_back(Column{agg.ToString(), ba.type});
      bound.bound_aggregates_.push_back(ba);
    }
    bound.output_schema_ = Schema(std::move(out_cols));
    if (!def.group_by.empty()) {
      bound.output_partition_col_ = 0;
      if (def.partition_on.has_value()) {
        for (size_t i = 0; i < def.group_by.size(); ++i) {
          if (def.group_by[i] == *def.partition_on) {
            bound.output_partition_col_ = static_cast<int>(i);
            break;
          }
        }
      }
    }
    return bound;
  }

  // Output row: projection applied to the working row.
  std::vector<Column> out_cols;
  if (def.projection.empty()) {
    for (int i = 0; i < n; ++i) {
      for (size_t j = 0; j < bound.needed_cols_[i].size(); ++j) {
        bound.output_indices_.push_back(bound.needed_offsets_[i] +
                                        static_cast<int>(j));
        out_cols.push_back(
            Column{def.bases[i].alias + "." + bound.needed_schemas_[i].column(j).name,
                   bound.needed_schemas_[i].column(j).type});
      }
    }
  } else {
    for (const ColumnRef& ref : def.projection) {
      int base = *def.BaseIndexOfAlias(ref.alias);
      int full_col = *bound.base_defs_[base].schema.ColumnIndex(ref.column);
      PJVM_ASSIGN_OR_RETURN(int idx, bound.WorkingIndex(base, full_col));
      bound.output_indices_.push_back(idx);
      out_cols.push_back(
          Column{ref.ToString(),
                 bound.base_defs_[base].schema.column(full_col).type});
    }
  }
  bound.output_schema_ = Schema(std::move(out_cols));

  if (def.partition_on.has_value()) {
    int base = *def.BaseIndexOfAlias(def.partition_on->alias);
    int full_col =
        *bound.base_defs_[base].schema.ColumnIndex(def.partition_on->column);
    PJVM_ASSIGN_OR_RETURN(int working_idx, bound.WorkingIndex(base, full_col));
    // Find that working index inside the output indices.
    for (size_t i = 0; i < bound.output_indices_.size(); ++i) {
      if (bound.output_indices_[i] == working_idx) {
        bound.output_partition_col_ = static_cast<int>(i);
        break;
      }
    }
    if (bound.output_partition_col_ < 0) {
      return Status::Internal("view '" + def.name +
                              "': partition attribute missing from output");
    }
  }
  return bound;
}

Result<int> BoundView::NeededPos(int base, int full_col) const {
  const std::vector<int>& cols = needed_cols_[base];
  auto it = std::lower_bound(cols.begin(), cols.end(), full_col);
  if (it == cols.end() || *it != full_col) {
    return Status::InvalidArgument(
        "column " + std::to_string(full_col) + " of base " +
        std::to_string(base) + " is not needed by view '" + def_.name + "'");
  }
  return static_cast<int>(it - cols.begin());
}

Result<int> BoundView::WorkingIndex(int base, int full_col) const {
  PJVM_ASSIGN_OR_RETURN(int pos, NeededPos(base, full_col));
  return needed_offsets_[base] + pos;
}

bool BoundView::RowPassesSelections(int base, const Row& full_row) const {
  return RowPassesPreds(full_row, preds_[base]);
}

Row BoundView::ProjectNeeded(int base, const Row& full_row) const {
  return ProjectRow(full_row, needed_cols_[base]);
}

Row BoundView::OutputRow(const Row& working) const {
  if (!is_aggregate()) return ProjectRow(working, output_indices_);
  Row out;
  out.reserve(StoredGroupWidth() + 1 + bound_aggregates_.size());
  for (int idx : group_indices_) out.push_back(working[idx]);
  out.push_back(Value{int64_t{1}});  // __count contribution.
  for (const BoundAggregate& agg : bound_aggregates_) {
    switch (agg.fn) {
      case AggFn::kCount:
        out.push_back(Value{int64_t{1}});
        break;
      case AggFn::kSum:
        out.push_back(working[agg.working_index]);
        break;
    }
  }
  return out;
}

std::vector<Row> BoundView::FoldAggregates(const std::vector<Row>& rows) const {
  if (!is_aggregate()) return rows;
  // Keyed by the group prefix; values accumulate count + aggregates.
  std::unordered_map<Row, Row, RowHash> groups;
  int width = StoredGroupWidth();
  for (const Row& contribution : rows) {
    Row key(contribution.begin(), contribution.begin() + width);
    auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(std::move(key), contribution);
      continue;
    }
    Row& acc = it->second;
    for (size_t i = width; i < contribution.size(); ++i) {
      acc[i] = AddValues(acc[i], contribution[i]);
    }
  }
  std::vector<Row> out;
  out.reserve(groups.size());
  for (auto& [key, row] : groups) out.push_back(std::move(row));
  return out;
}

}  // namespace pjvm
