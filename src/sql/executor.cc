#include "sql/executor.h"

#include <sstream>

#include "view/planner.h"

namespace pjvm::sql {

Status Executor::Execute(const std::string& statement, std::ostream& os) {
  PJVM_ASSIGN_OR_RETURN(ParsedStatement stmt, ParseStatement(statement));
  return Run(stmt, os);
}

Status Executor::ExecuteScript(const std::string& script, std::ostream& os) {
  std::string current;
  for (char c : script) {
    current += c;
    if (c == ';') {
      // Skip statements that are only whitespace/semicolons.
      bool blank = true;
      for (char x : current) {
        if (!std::isspace(static_cast<unsigned char>(x)) && x != ';') {
          blank = false;
          break;
        }
      }
      if (!blank) PJVM_RETURN_NOT_OK(Execute(current, os));
      current.clear();
    }
  }
  bool blank = true;
  for (char x : current) {
    if (!std::isspace(static_cast<unsigned char>(x))) blank = false;
  }
  if (!blank) PJVM_RETURN_NOT_OK(Execute(current, os));
  return Status::OK();
}

Status Executor::Run(const ParsedStatement& stmt, std::ostream& os) {
  ParallelSystem* sys = manager_->system();
  switch (stmt.kind) {
    case StatementKind::kCreateTable: {
      PJVM_RETURN_NOT_OK(sys->CreateTable(stmt.create_table));
      os << "created table " << stmt.create_table.name << " "
         << stmt.create_table.schema.ToString() << " "
         << stmt.create_table.partition.ToString() << "\n";
      return Status::OK();
    }
    case StatementKind::kCreateView: {
      PJVM_RETURN_NOT_OK(manager_->RegisterView(stmt.create_view, stmt.method));
      os << "created view " << stmt.create_view.name << " ("
         << MaintenanceMethodToString(stmt.method) << ", "
         << manager_->view(stmt.create_view.name)->RowCount()
         << " rows backfilled)\n";
      return Status::OK();
    }
    case StatementKind::kInsert: {
      DeltaBatch delta = DeltaBatch::Inserts(stmt.table, stmt.rows);
      PJVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                            manager_->ApplyDelta(std::move(delta)));
      os << "inserted " << stmt.rows.size() << " row(s)";
      if (report.view_rows_inserted + report.view_rows_deleted > 0) {
        os << "; views +" << report.view_rows_inserted << "/-"
           << report.view_rows_deleted;
      }
      os << "\n";
      return Status::OK();
    }
    case StatementKind::kDelete: {
      DeltaBatch delta = DeltaBatch::Deletes(stmt.table, stmt.rows);
      PJVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                            manager_->ApplyDelta(std::move(delta)));
      os << "deleted " << stmt.rows.size() << " row(s)";
      if (report.view_rows_inserted + report.view_rows_deleted > 0) {
        os << "; views +" << report.view_rows_inserted << "/-"
           << report.view_rows_deleted;
      }
      os << "\n";
      return Status::OK();
    }
    case StatementKind::kSelect: {
      std::vector<Row> rows;
      if (stmt.where.has_value()) {
        PJVM_ASSIGN_OR_RETURN(
            rows, sys->SelectEq(stmt.table, stmt.where->first,
                                stmt.where->second));
      } else if (stmt.where_range.has_value()) {
        PJVM_ASSIGN_OR_RETURN(
            rows, sys->SelectRange(stmt.table, stmt.where_range->column,
                                   stmt.where_range->lo, stmt.where_range->hi));
      } else {
        if (!sys->catalog().Has(stmt.table)) {
          return Status::NotFound("no table '" + stmt.table + "'");
        }
        rows = sys->ScanAll(stmt.table);
      }
      PJVM_ASSIGN_OR_RETURN(const TableDef* def, sys->catalog().Get(stmt.table));
      os << def->schema.ToString() << "\n";
      for (const Row& row : rows) {
        os << "  " << RowToString(row) << "\n";
      }
      os << "(" << rows.size() << " row(s))\n";
      return Status::OK();
    }
    case StatementKind::kShowTables: {
      for (const std::string& name : sys->catalog().ListNames()) {
        PJVM_ASSIGN_OR_RETURN(const TableDef* def, sys->catalog().Get(name));
        os << "  " << TableKindToString(def->kind) << " " << name << " ("
           << sys->RowCount(name) << " rows, " << sys->TableBytes(name)
           << " bytes)\n";
      }
      return Status::OK();
    }
    case StatementKind::kShowCost: {
      os << sys->cost().ToString() << "\n";
      return Status::OK();
    }
    case StatementKind::kDropView: {
      PJVM_RETURN_NOT_OK(manager_->UnregisterView(stmt.table));
      os << "dropped view " << stmt.table << "\n";
      return Status::OK();
    }
    case StatementKind::kExplainAnalyze: {
      DeltaBatch delta = stmt.analyze_delete
                             ? DeltaBatch::Deletes(stmt.table, stmt.rows)
                             : DeltaBatch::Inserts(stmt.table, stmt.rows);
      MaintenanceAnalysis analysis;
      PJVM_RETURN_NOT_OK(
          manager_->ApplyDelta(std::move(delta), &analysis).status());
      os << analysis.ToString();
      return Status::OK();
    }
    case StatementKind::kExplain: {
      if (!sys->catalog().Has(stmt.table)) {
        return Status::NotFound("no table '" + stmt.table + "'");
      }
      bool any = false;
      for (const std::string& name : manager_->ViewNames()) {
        const ViewRegistration* reg = manager_->registration(name);
        int updated_base = -1;
        for (int i = 0; i < reg->bound.num_bases(); ++i) {
          if (reg->bound.base_def(i).name == stmt.table) updated_base = i;
        }
        if (updated_base < 0) continue;
        any = true;
        FanoutFn fanout = [&](int base, int col) {
          return sys->EstimateFanout(reg->bound.base_def(base).name, col);
        };
        PJVM_ASSIGN_OR_RETURN(MaintenancePlan plan,
                              PlanMaintenance(reg->bound, updated_base, fanout));
        os << "  view " << name << " ["
           << MaintenanceMethodToString(reg->method)
           << "]: " << plan.ToString(reg->bound) << "  (est. cost/tuple "
           << EstimatePlanCost(reg->bound, plan, fanout) << ")\n";
      }
      if (!any) os << "  no registered views reference " << stmt.table << "\n";
      return Status::OK();
    }
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace pjvm::sql
