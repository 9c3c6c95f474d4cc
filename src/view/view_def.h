#ifndef PJVM_VIEW_VIEW_DEF_H_
#define PJVM_VIEW_VIEW_DEF_H_

#include <optional>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "engine/catalog.h"

namespace pjvm {

/// \brief A reference to one column of one aliased base relation ("A.c").
struct ColumnRef {
  std::string alias;
  std::string column;

  std::string ToString() const { return alias + "." + column; }
  friend bool operator==(const ColumnRef& a, const ColumnRef& b) {
    return a.alias == b.alias && a.column == b.column;
  }
};

/// \brief One equi-join predicate between two base relations.
struct JoinEdge {
  ColumnRef left;
  ColumnRef right;

  std::string ToString() const {
    return left.ToString() + " = " + right.ToString();
  }
};

/// \brief Comparison operator of a single-table selection predicate.
enum class PredOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* PredOpToString(PredOp op);

/// \brief A selection predicate "alias.column <op> constant".
struct SelectionPred {
  ColumnRef column;
  PredOp op = PredOp::kEq;
  Value constant;

  bool Eval(const Value& v) const;
  std::string ToString() const {
    return column.ToString() + " " + PredOpToString(op) + " " +
           constant.ToString();
  }
};

/// \brief One base relation of the view, with its alias.
struct BaseRef {
  std::string table;
  std::string alias;
};

/// \brief Aggregate functions supported by aggregate join views.
enum class AggFn {
  kCount = 0,  // COUNT(*)
  kSum,        // SUM(alias.column)
};

const char* AggFnToString(AggFn fn);

/// \brief One aggregate of an aggregate join view's SELECT list.
struct AggregateSpec {
  AggFn fn = AggFn::kCount;
  /// The aggregated column; ignored for COUNT(*).
  ColumnRef column;

  std::string ToString() const;
};

/// \brief The logical definition of a materialized join view:
/// SELECT <projection> FROM <bases> WHERE <edges AND selections>
/// [PARTITIONED ON <partition_on>].
///
/// An empty projection means SELECT * (every column of every base). The
/// equi-join graph over the bases must be connected. Each base table may be
/// referenced at most once (self-joins are not supported — the paper's
/// methods probe the post-update state of the *other* relations, which is
/// only the pre-update state when the updated table appears once).
struct JoinViewDef {
  std::string name;
  std::vector<BaseRef> bases;
  std::vector<JoinEdge> edges;
  std::vector<ColumnRef> projection;
  std::vector<SelectionPred> selections;
  std::optional<ColumnRef> partition_on;
  /// Non-empty `aggregates` makes this an *aggregate join view*: the stored
  /// rows are one per `group_by` key, holding a hidden COUNT(*) (for
  /// correct deletion handling) plus the requested aggregates, maintained
  /// incrementally from the delta-join tuples. `projection` must then be
  /// empty (`group_by` defines the output) and `partition_on`, if set, must
  /// be one of the group-by columns.
  std::vector<ColumnRef> group_by;
  std::vector<AggregateSpec> aggregates;

  bool is_aggregate() const { return !aggregates.empty(); }

  /// Index of the base with this alias, or NotFound.
  Result<int> BaseIndexOfAlias(const std::string& alias) const;

  /// Structural and catalog validation; see class comment for the rules.
  Status Validate(const Catalog& catalog) const;

  std::string ToString() const;
};

/// \brief A JoinEdge resolved to base indices and full-schema column indices.
struct BoundEdge {
  int left_base = -1;
  int left_col = -1;  // Index into the left base's full schema.
  int right_base = -1;
  int right_col = -1;
};

/// \brief A SelectionPred resolved against one base's full schema.
struct BoundPred {
  int col = -1;
  PredOp op = PredOp::kEq;
  Value constant;
};

/// True iff `row` passes every predicate (`col` indexes into `row`).
bool RowPassesPreds(const Row& row, const std::vector<BoundPred>& preds);

/// \brief A JoinViewDef compiled against a catalog.
///
/// Binding computes, per base, the *needed columns*: the subset of the
/// base's columns referenced by the projection, the join edges, the
/// selections, and the view partitioning attribute. Maintenance operates on
/// "needed tuples" (full base tuples projected to their needed columns) so
/// the same code paths serve full base relations and storage-minimized
/// auxiliary relations (the paper's Section 2.1.2). The maintenance-time
/// working row is the concatenation of all bases' needed tuples, in base
/// order; the view's stored row is `projection` applied to that.
class BoundView {
 public:
  static Result<BoundView> Bind(const JoinViewDef& def, const Catalog& catalog);

  const JoinViewDef& def() const { return def_; }
  int num_bases() const { return static_cast<int>(base_defs_.size()); }
  const TableDef& base_def(int i) const { return base_defs_[i]; }
  const std::vector<BoundEdge>& bound_edges() const { return bound_edges_; }

  /// Needed column indices of base i (ascending, into the full base schema).
  const std::vector<int>& needed_cols(int i) const { return needed_cols_[i]; }
  /// Schema of base i's needed tuple (column names unprefixed).
  const Schema& needed_schema(int i) const { return needed_schemas_[i]; }
  /// Offset of base i's needed tuple in the concatenated working row.
  int needed_offset(int i) const { return needed_offsets_[i]; }
  int working_width() const { return working_width_; }

  /// Position of base i's full-schema column `full_col` within its needed
  /// tuple; InvalidArgument if the column is not needed.
  Result<int> NeededPos(int base, int full_col) const;
  /// Same, but as an index into the concatenated working row.
  Result<int> WorkingIndex(int base, int full_col) const;

  /// Selection predicates of base i (resolved to full-schema columns).
  const std::vector<BoundPred>& base_preds(int i) const { return preds_[i]; }
  bool RowPassesSelections(int base, const Row& full_row) const;
  /// Projects a full base row to its needed tuple.
  Row ProjectNeeded(int base, const Row& full_row) const;

  /// Indices into the working row producing the view's stored row.
  const std::vector<int>& output_indices() const { return output_indices_; }
  Schema output_schema() const { return output_schema_; }
  /// For plain views: the stored row (projection of the working row).
  /// For aggregate views: a *contribution* row in the stored layout —
  /// [group values..., 1, per-aggregate contribution...] — which
  /// MaterializedView folds into the stored group row.
  Row OutputRow(const Row& working) const;
  /// Column of the *stored view row* the view is hash-partitioned on, or -1
  /// when the view is round-robin.
  int output_partition_col() const { return output_partition_col_; }

  // --- Aggregate join views -------------------------------------------

  bool is_aggregate() const { return def_.is_aggregate(); }
  /// Working-row indices of the GROUP BY columns.
  const std::vector<int>& group_indices() const { return group_indices_; }
  /// Bound aggregates: working-row index of the aggregated value (-1 for
  /// COUNT) plus the output type.
  struct BoundAggregate {
    AggFn fn = AggFn::kCount;
    int working_index = -1;
    ValueType type = ValueType::kInt64;
  };
  const std::vector<BoundAggregate>& bound_aggregates() const {
    return bound_aggregates_;
  }
  /// Layout of a *stored* aggregate-view row:
  /// [group cols..., __count, agg values...].
  int StoredGroupWidth() const {
    return static_cast<int>(group_indices_.size());
  }
  int StoredCountIndex() const { return StoredGroupWidth(); }

  /// Folds delta-join output rows (contribution rows produced by
  /// OutputRow) into stored aggregate rows — the from-scratch evaluation of
  /// an aggregate view. Non-aggregate views return `rows` unchanged.
  std::vector<Row> FoldAggregates(const std::vector<Row>& rows) const;

 private:
  JoinViewDef def_;
  std::vector<TableDef> base_defs_;
  std::vector<BoundEdge> bound_edges_;
  std::vector<std::vector<int>> needed_cols_;
  std::vector<Schema> needed_schemas_;
  std::vector<int> needed_offsets_;
  int working_width_ = 0;
  std::vector<std::vector<BoundPred>> preds_;
  std::vector<int> output_indices_;
  Schema output_schema_;
  int output_partition_col_ = -1;
  std::vector<int> group_indices_;
  std::vector<BoundAggregate> bound_aggregates_;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_VIEW_DEF_H_
