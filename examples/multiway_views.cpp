// Multi-way join views (the paper's Section 2.2): a three-relation view,
// the auxiliary relations it requires on each join attribute, the
// maintenance-plan choices that arise when the *middle* relation is
// updated, and the statistics-driven planner that picks among them.

#include <cstdio>

#include "engine/system.h"
#include "sql/parser.h"
#include "view/planner.h"
#include "view/view_manager.h"

using namespace pjvm;

int main() {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  ParallelSystem sys(cfg);

  // suppliers(sk, city) -- parts supplied --> supplies(sk, pk, qty)
  //                         <-- parts(pk, kind)
  TableDef suppliers;
  suppliers.name = "suppliers";
  suppliers.schema =
      Schema({{"sk", ValueType::kInt64}, {"city", ValueType::kString}});
  suppliers.partition = PartitionSpec::Hash("city");
  sys.CreateTable(suppliers).Check();
  TableDef supplies;
  supplies.name = "supplies";
  supplies.schema = Schema({{"sk", ValueType::kInt64},
                            {"pk", ValueType::kInt64},
                            {"qty", ValueType::kInt64}});
  supplies.partition = PartitionSpec::Hash("qty");
  sys.CreateTable(supplies).Check();
  TableDef parts;
  parts.name = "parts";
  parts.schema =
      Schema({{"pk", ValueType::kInt64}, {"kind", ValueType::kString}});
  parts.partition = PartitionSpec::Hash("kind");
  sys.CreateTable(parts).Check();

  const char* cities[] = {"madison", "seattle", "dayton"};
  for (int64_t s = 0; s < 9; ++s) {
    sys.Insert("suppliers", {Value{s}, Value{cities[s % 3]}}).Check();
  }
  for (int64_t p = 0; p < 6; ++p) {
    sys.Insert("parts", {Value{p}, Value{p % 2 ? "bolt" : "nut"}}).Check();
  }
  for (int64_t i = 0; i < 18; ++i) {
    sys.Insert("supplies", {Value{i % 9}, Value{i % 6}, Value{i * 10}}).Check();
  }

  ViewManager manager(&sys);
  auto def = sql::ParseCreateView(
      "CREATE JOIN VIEW supply_chain AS "
      "SELECT s.city, p.kind, u.qty "
      "FROM suppliers s, supplies u, parts p "
      "WHERE s.sk = u.sk AND u.pk = p.pk "
      "PARTITIONED ON s.city;");
  def.status().Check();
  manager.RegisterView(*def, MaintenanceMethod::kAuxRelation).Check();

  std::printf("view: %s\n", def->ToString().c_str());
  std::printf("backfilled %zu rows\n\n",
              manager.view("supply_chain")->RowCount());

  std::printf("auxiliary relations created (one per non-co-partitioned join "
              "attribute):\n");
  for (const std::string& name :
       manager.structures().TableNames(MaintenanceMethod::kAuxRelation)) {
    std::printf("  %-28s %6zu rows  %8zu bytes\n", name.c_str(),
                sys.RowCount(name), sys.TableBytes(name));
  }

  // The Section 2.2 optimization problem: a delta on the middle relation
  // (`supplies`) can join toward suppliers first or parts first.
  const ViewRegistration* reg = manager.registration("supply_chain");
  FanoutFn live_stats = [&](int base, int col) {
    const std::string& table = reg->bound.base_def(base).name;
    double rows = static_cast<double>(sys.RowCount(table));
    (void)col;
    return rows > 0 ? rows / 6.0 : 1.0;  // Rough demo statistics.
  };
  std::printf("\nmaintenance plans for a delta on `supplies`:\n");
  for (const MaintenancePlan& plan : EnumerateAllPlans(reg->bound, 1)) {
    std::printf("  %-56s est. cost %.1f\n", plan.ToString(reg->bound).c_str(),
                EstimatePlanCost(reg->bound, plan, live_stats));
  }

  // Updates on the middle relation flow through both auxiliary relations.
  sys.cost().Reset();
  manager.InsertRow("supplies", {Value{2}, Value{3}, Value{999}})
      .status()
      .Check();
  std::printf("\ninsert into supplies: %s\n", sys.cost().ToString().c_str());
  manager.DeleteRow("supplies", {Value{0}, Value{0}, Value{0}})
      .status()
      .Check();
  manager.CheckAllConsistent().Check();
  std::printf("view verified after middle-relation insert + delete: %zu rows\n",
              manager.view("supply_chain")->RowCount());
  return 0;
}
