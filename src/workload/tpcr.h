#ifndef PJVM_WORKLOAD_TPCR_H_
#define PJVM_WORKLOAD_TPCR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/system.h"
#include "view/view_def.h"

namespace pjvm {

/// \brief Shape of the paper's Section 3.3 data set (Table 1), scaled.
///
/// customer (custkey, acctbal, name)      partitioned on custkey
/// orders   (orderkey, custkey, totalprice) partitioned on orderkey
/// lineitem (orderkey, partkey, suppkey, extendedprice, discount)
///                                        partitioned on partkey
///
/// Every custkey in [0, customers + extra_customer_keys) has exactly
/// `orders_per_customer` orders; every order has `lineitems_per_order`
/// lineitems. The extra keys exist so that freshly inserted customers (the
/// paper's 128-tuple delta) match pre-existing orders, exactly as in the
/// paper's experiment.
struct TpcrConfig {
  int64_t customers = 3000;
  int64_t extra_customer_keys = 256;
  int orders_per_customer = 1;
  int lineitems_per_order = 4;
  uint64_t seed = 42;
};

/// \brief Generated rows (deterministic for a given config).
struct TpcrData {
  TpcrConfig config;
  std::vector<Row> customer;
  std::vector<Row> orders;
  std::vector<Row> lineitem;
};

Schema CustomerSchema();
Schema OrdersSchema();
Schema LineitemSchema();

/// Table definitions with the paper's partitioning attributes, plus
/// non-clustered indexes on the join attributes (the paper's step (1):
/// "we created a non-clustered index on the custkey attribute of orders and
/// another on the orderkey attribute of lineitem").
TableDef CustomerTableDef();
TableDef OrdersTableDef();
TableDef LineitemTableDef();

TpcrData GenerateTpcr(const TpcrConfig& config);

/// Creates the three tables in `sys` and loads `data`, handing its rows
/// over to the tables (one InsertMany per table).
Status LoadTpcr(ParallelSystem* sys, TpcrData data);

/// A fresh customer row whose custkey is `customers + i` — it matches the
/// pre-generated orders for that key (the paper's delta tuples "each have
/// one matching tuple in the orders relation").
Row MakeDeltaCustomer(const TpcrConfig& config, int64_t i);

/// JV1: customer x orders on custkey (Section 3.3).
JoinViewDef MakeJv1();
/// JV2: customer x orders x lineitem on custkey and orderkey (Section 3.3).
JoinViewDef MakeJv2();

/// \brief One row of the Table 1 report.
struct TableSizeRow {
  std::string name;
  size_t rows = 0;
  size_t bytes = 0;
};

/// Sizes of the three loaded tables, in Table 1's format.
std::vector<TableSizeRow> TableSizes(const ParallelSystem& sys);

}  // namespace pjvm

#endif  // PJVM_WORKLOAD_TPCR_H_
