#include "workload/tpcr.h"

#include <utility>

#include "common/rng.h"

namespace pjvm {

Schema CustomerSchema() {
  return Schema({{"custkey", ValueType::kInt64},
                 {"acctbal", ValueType::kDouble},
                 {"name", ValueType::kString}});
}

Schema OrdersSchema() {
  return Schema({{"orderkey", ValueType::kInt64},
                 {"custkey", ValueType::kInt64},
                 {"totalprice", ValueType::kDouble}});
}

Schema LineitemSchema() {
  return Schema({{"orderkey", ValueType::kInt64},
                 {"partkey", ValueType::kInt64},
                 {"suppkey", ValueType::kInt64},
                 {"extendedprice", ValueType::kDouble},
                 {"discount", ValueType::kDouble}});
}

TableDef CustomerTableDef() {
  TableDef def;
  def.name = "customer";
  def.schema = CustomerSchema();
  def.partition = PartitionSpec::Hash("custkey");
  return def;
}

TableDef OrdersTableDef() {
  TableDef def;
  def.name = "orders";
  def.schema = OrdersSchema();
  def.partition = PartitionSpec::Hash("orderkey");
  def.indexes.push_back(IndexSpec{"custkey", /*clustered=*/false});
  return def;
}

TableDef LineitemTableDef() {
  TableDef def;
  def.name = "lineitem";
  def.schema = LineitemSchema();
  def.partition = PartitionSpec::Hash("partkey");
  def.indexes.push_back(IndexSpec{"orderkey", /*clustered=*/false});
  return def;
}

TpcrData GenerateTpcr(const TpcrConfig& config) {
  TpcrData data;
  data.config = config;
  Rng rng(config.seed);
  data.customer.reserve(config.customers);
  for (int64_t c = 0; c < config.customers; ++c) {
    data.customer.push_back(
        {Value{c}, Value{rng.UniformDouble() * 10000.0},
         Value{"Customer#" + std::to_string(c)}});
  }
  int64_t total_keys = config.customers + config.extra_customer_keys;
  int64_t orderkey = 0;
  data.orders.reserve(total_keys * config.orders_per_customer);
  for (int64_t c = 0; c < total_keys; ++c) {
    for (int o = 0; o < config.orders_per_customer; ++o) {
      data.orders.push_back(
          {Value{orderkey}, Value{c}, Value{rng.UniformDouble() * 100000.0}});
      for (int l = 0; l < config.lineitems_per_order; ++l) {
        data.lineitem.push_back({Value{orderkey},
                                 Value{rng.UniformInt(0, 9999)},
                                 Value{rng.UniformInt(0, 99)},
                                 Value{rng.UniformDouble() * 5000.0},
                                 Value{rng.UniformDouble() * 0.1}});
      }
      ++orderkey;
    }
  }
  return data;
}

Status LoadTpcr(ParallelSystem* sys, TpcrData data) {
  PJVM_RETURN_NOT_OK(sys->CreateTable(CustomerTableDef()));
  PJVM_RETURN_NOT_OK(sys->CreateTable(OrdersTableDef()));
  PJVM_RETURN_NOT_OK(sys->CreateTable(LineitemTableDef()));
  PJVM_RETURN_NOT_OK(sys->InsertMany("customer", std::move(data.customer)));
  PJVM_RETURN_NOT_OK(sys->InsertMany("orders", std::move(data.orders)));
  PJVM_RETURN_NOT_OK(sys->InsertMany("lineitem", std::move(data.lineitem)));
  return Status::OK();
}

Row MakeDeltaCustomer(const TpcrConfig& config, int64_t i) {
  int64_t custkey = config.customers + (i % config.extra_customer_keys);
  return {Value{custkey}, Value{static_cast<double>(i)},
          Value{"DeltaCustomer#" + std::to_string(i)}};
}

JoinViewDef MakeJv1() {
  // create join view JV1 as select c.custkey, c.acctbal, o.orderkey,
  // o.totalprice from orders o, customer c where c.custkey = o.custkey;
  JoinViewDef def;
  def.name = "JV1";
  def.bases = {{"customer", "c"}, {"orders", "o"}};
  def.edges = {{{"c", "custkey"}, {"o", "custkey"}}};
  def.projection = {{"c", "custkey"},
                    {"c", "acctbal"},
                    {"o", "orderkey"},
                    {"o", "totalprice"}};
  def.partition_on = ColumnRef{"c", "custkey"};
  return def;
}

JoinViewDef MakeJv2() {
  // create join view JV2 as select c.custkey, c.acctbal, o.orderkey,
  // o.totalprice, l.discount, l.extendedprice from orders o, customer c,
  // lineitem l where c.custkey = o.custkey and o.orderkey = l.orderkey;
  JoinViewDef def;
  def.name = "JV2";
  def.bases = {{"customer", "c"}, {"orders", "o"}, {"lineitem", "l"}};
  def.edges = {{{"c", "custkey"}, {"o", "custkey"}},
               {{"o", "orderkey"}, {"l", "orderkey"}}};
  def.projection = {{"c", "custkey"},   {"c", "acctbal"},
                    {"o", "orderkey"},  {"o", "totalprice"},
                    {"l", "discount"},  {"l", "extendedprice"}};
  def.partition_on = ColumnRef{"c", "custkey"};
  return def;
}

std::vector<TableSizeRow> TableSizes(const ParallelSystem& sys) {
  std::vector<TableSizeRow> out;
  for (const char* name : {"customer", "orders", "lineitem"}) {
    TableSizeRow row;
    row.name = name;
    row.rows = sys.RowCount(name);
    row.bytes = sys.TableBytes(name);
    out.push_back(row);
  }
  return out;
}

}  // namespace pjvm
