// Ablation: the AR storage-minimization techniques of Section 2.1.2.
//
// Uses JV2's lineitem auxiliary relation (lineitem is the wide relation:
// 5 columns, of which JV2 needs only 3). Compares the extra storage of
// (a) full-copy auxiliary relations, (b) projection-minimized ARs, (c)
// selection+projection-minimized ARs, and (d) global indexes. Also
// demonstrates AR sharing: two views on the same join attribute use one AR.
//
// The final section sweeps the merged co-clustered layout
// (SystemConfig::merged_ar_storage, view/merged_storage.h) against the
// separate layout on the same customer-insert delta stream, reporting
// per-delta maintenance I/O — searches, fetches, writes, sends, and tree
// descents — and verifying the two layouts' view contents are
// fingerprint-identical.

#include <cstdio>

#include "bench/bench_util.h"

namespace pjvm {
namespace {

struct Setup {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> manager;
};

Setup Build() {
  Setup s;
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 16;
  s.sys = std::make_unique<ParallelSystem>(cfg);
  TpcrConfig tpcr;
  tpcr.customers = 2000;
  LoadTpcr(s.sys.get(), GenerateTpcr(tpcr)).Check();
  s.manager = std::make_unique<ViewManager>(s.sys.get());
  return s;
}

size_t LineitemArBytes(const JoinViewDef& def) {
  Setup s = Build();
  s.manager->RegisterView(def, MaintenanceMethod::kAuxRelation).Check();
  for (const std::string& name :
       s.manager->structures().TableNames(MaintenanceMethod::kAuxRelation)) {
    if (name.find("lineitem") != std::string::npos) {
      return s.sys->TableBytes(name);
    }
  }
  return 0;
}

size_t LineitemGiBytes(const JoinViewDef& def) {
  Setup s = Build();
  s.manager->RegisterView(def, MaintenanceMethod::kGlobalIndex).Check();
  for (const std::string& name :
       s.manager->structures().TableNames(MaintenanceMethod::kGlobalIndex)) {
    if (name.find("lineitem") != std::string::npos) {
      return s.sys->TableBytes(name);
    }
  }
  return 0;
}

// One layout's run over the merged-vs-separate delta sweep.
struct LayoutRun {
  NodeCounters totals;          // Summed over nodes, deltas only.
  uint64_t range_ops = 0;       // Merged range descents (0 for separate).
  size_t merged_bytes = 0;      // Merged trees' footprint (0 for separate).
  size_t jv1_bytes = 0;         // JV1's TableBytes (incl. overlay).
  std::map<std::string, int> jv1;  // View fingerprints after the stream.
  std::map<std::string, int> jv2;
};

std::map<std::string, int> Fingerprint(ViewManager* manager,
                                       const std::string& name) {
  std::map<std::string, int> bag;
  for (const Row& row : manager->view(name)->Contents()) {
    bag[RowToString(row)]++;
  }
  return bag;
}

LayoutRun RunDeltaSweep(bool merged, int deltas) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 16;
  cfg.merged_ar_storage = merged;
  auto sys = std::make_unique<ParallelSystem>(cfg);
  TpcrConfig tpcr;
  tpcr.customers = 1000;
  tpcr.extra_customer_keys = 256;
  LoadTpcr(sys.get(), GenerateTpcr(tpcr)).Check();
  ViewManager manager(sys.get());
  manager.RegisterView(MakeJv1(), MaintenanceMethod::kAuxRelation).Check();
  manager.RegisterView(MakeJv2(), MaintenanceMethod::kAuxRelation).Check();

  MergedViewStorage* store = manager.merged_storage("JV1");
  uint64_t range_ops_before = store != nullptr ? store->range_ops() : 0;
  sys->cost().Reset();
  for (int i = 0; i < deltas; ++i) {
    manager
        .ApplyDelta(
            DeltaBatch::Inserts("customer", {MakeDeltaCustomer(tpcr, i)}))
        .status()
        .Check();
  }
  LayoutRun run;
  for (const NodeCounters& c : sys->cost().Snapshot()) run.totals += c;
  run.range_ops = store != nullptr ? store->range_ops() - range_ops_before : 0;
  run.merged_bytes = store != nullptr ? store->TreeBytes() : 0;
  run.jv1_bytes = sys->TableBytes("JV1");
  run.jv1 = Fingerprint(&manager, "JV1");
  run.jv2 = Fingerprint(&manager, "JV2");
  manager.CheckAllConsistent().Check();
  return run;
}

}  // namespace
}  // namespace pjvm

int main() {
  using namespace pjvm;
  // Full copy: SELECT * keeps every lineitem column in the AR.
  JoinViewDef full = MakeJv2();
  full.name = "JV2full";
  full.projection.clear();
  full.partition_on.reset();
  // Projection-minimized: the paper's JV2 needs orderkey, discount,
  // extendedprice of lineitem (3 of 5 columns).
  JoinViewDef projected = MakeJv2();
  // Selection+projection-minimized: only discounted items.
  JoinViewDef filtered = MakeJv2();
  filtered.name = "JV2f";
  filtered.selections = {{{"l", "discount"}, PredOp::kGt, Value{0.05}}};

  Setup base = Build();
  size_t lineitem_bytes = base.sys->TableBytes("lineitem");
  size_t full_bytes = LineitemArBytes(full);
  size_t proj_bytes = LineitemArBytes(projected);
  size_t filt_bytes = LineitemArBytes(filtered);
  size_t gi_bytes = LineitemGiBytes(projected);

  bench::PrintHeader(
      "AR storage minimization: the lineitem structure for JV2 (Sec. 2.1.2)");
  std::printf("%-38s %12zu bytes\n", "lineitem base relation", lineitem_bytes);
  std::printf("%-38s %12zu bytes (%.2fx of base)\n",
              "full-copy AR (select *)", full_bytes,
              double(full_bytes) / lineitem_bytes);
  std::printf("%-38s %12zu bytes (%.2fx of base)\n",
              "projected AR (paper's JV2 columns)", proj_bytes,
              double(proj_bytes) / lineitem_bytes);
  std::printf("%-38s %12zu bytes (%.2fx of base)\n",
              "sigma+pi AR (discount > 0.05)", filt_bytes,
              double(filt_bytes) / lineitem_bytes);
  std::printf("%-38s %12zu bytes (%.2fx of base)\n",
              "global index (same attribute)", gi_bytes,
              double(gi_bytes) / lineitem_bytes);

  bench::BenchReport report("ablation_ar_storage");
  {
    bench::JsonWriter storage;
    storage.BeginObject()
        .Key("lineitem_base_bytes").Uint(lineitem_bytes)
        .Key("full_copy_ar_bytes").Uint(full_bytes)
        .Key("projected_ar_bytes").Uint(proj_bytes)
        .Key("filtered_ar_bytes").Uint(filt_bytes)
        .Key("global_index_bytes").Uint(gi_bytes)
        .EndObject();
    report.Add("lineitem_structure", storage.str());
  }

  // Sharing: JV2 plus a second view joining lineitem on the same attribute.
  {
    Setup s = Build();
    s.manager->RegisterView(MakeJv2(), MaintenanceMethod::kAuxRelation).Check();
    const StructureRegistry& structures = s.manager->structures();
    size_t one_view = structures.StorageBytes(MaintenanceMethod::kAuxRelation);
    size_t ar_count_before =
        structures.TableNames(MaintenanceMethod::kAuxRelation).size();
    JoinViewDef second = MakeJv2();
    second.name = "JV2b";
    second.projection = {{"c", "custkey"}, {"l", "extendedprice"}};
    second.partition_on = ColumnRef{"c", "custkey"};
    s.manager->RegisterView(second, MaintenanceMethod::kAuxRelation).Check();
    size_t two_views = structures.StorageBytes(MaintenanceMethod::kAuxRelation);
    bench::PrintHeader("AR sharing across views (Section 2.1.2)");
    std::printf("ARs after JV2 only:    %8zu bytes across %zu AR table(s)\n",
                one_view, ar_count_before);
    const size_t ar_tables =
        structures.TableNames(MaintenanceMethod::kAuxRelation).size();
    std::printf("ARs after JV2 + JV2b:  %8zu bytes across %zu AR table(s)\n",
                two_views, ar_tables);
    std::printf("growth factor:         %.2fx (unshared would be ~2x)\n",
                double(two_views) / one_view);
    bench::JsonWriter sharing;
    sharing.BeginObject()
        .Key("one_view_ar_bytes").Uint(one_view)
        .Key("two_view_ar_bytes").Uint(two_views)
        .Key("ar_tables").Uint(ar_tables)
        .Key("growth_factor").Num(double(two_views) / one_view)
        .EndObject();
    report.Add("ar_sharing", sharing.str());
  }

  // Merged co-clustered layout vs separate structures, same delta stream.
  {
    const int kDeltas = 40;
    LayoutRun separate = RunDeltaSweep(/*merged=*/false, kDeltas);
    LayoutRun merged = RunDeltaSweep(/*merged=*/true, kDeltas);
    bool identical = separate.jv1 == merged.jv1 && separate.jv2 == merged.jv2;
    double descent_drop =
        separate.totals.descents == 0
            ? 0.0
            : 1.0 - double(merged.totals.descents) /
                        double(separate.totals.descents);
    bench::PrintHeader(
        "Merged co-clustered storage vs separate structures (per-delta I/O)");
    std::printf("%-22s %12s %12s\n", "per-delta average", "separate", "merged");
    auto per = [&](uint64_t v) { return double(v) / kDeltas; };
    std::printf("%-22s %12.2f %12.2f\n", "searches",
                per(separate.totals.searches), per(merged.totals.searches));
    std::printf("%-22s %12.2f %12.2f\n", "fetches",
                per(separate.totals.fetches), per(merged.totals.fetches));
    std::printf("%-22s %12.2f %12.2f\n", "writes",
                per(separate.totals.inserts), per(merged.totals.inserts));
    std::printf("%-22s %12.2f %12.2f\n", "sends", per(separate.totals.sends),
                per(merged.totals.sends));
    std::printf("%-22s %12.2f %12.2f  (-%.0f%%)\n", "tree descents",
                per(separate.totals.descents), per(merged.totals.descents),
                descent_drop * 100);
    std::printf("%-22s %12s %12.2f\n", "merged range ops", "-",
                per(merged.range_ops));
    std::printf("merged trees: %zu bytes (JV1 TableBytes %zu -> %zu)\n",
                merged.merged_bytes, separate.jv1_bytes, merged.jv1_bytes);
    std::printf("view fingerprints identical: %s\n",
                identical ? "yes" : "NO -- BUG");
    bench::JsonWriter sweep;
    sweep.BeginObject()
        .Key("deltas").Int(kDeltas)
        .Key("separate").BeginObject()
        .Key("searches").Uint(separate.totals.searches)
        .Key("fetches").Uint(separate.totals.fetches)
        .Key("writes").Uint(separate.totals.inserts)
        .Key("sends").Uint(separate.totals.sends)
        .Key("descents").Uint(separate.totals.descents)
        .EndObject()
        .Key("merged").BeginObject()
        .Key("searches").Uint(merged.totals.searches)
        .Key("fetches").Uint(merged.totals.fetches)
        .Key("writes").Uint(merged.totals.inserts)
        .Key("sends").Uint(merged.totals.sends)
        .Key("descents").Uint(merged.totals.descents)
        .Key("range_ops").Uint(merged.range_ops)
        .Key("tree_bytes").Uint(merged.merged_bytes)
        .EndObject()
        .Key("descent_reduction").Num(descent_drop)
        .Key("fingerprints_identical").Bool(identical)
        .EndObject();
    report.Add("merged_layout_sweep", sweep.str());
    if (!identical) {
      std::printf("ERROR: merged layout diverged from separate layout\n");
      return 1;
    }
  }
  report.Write();
  return 0;
}
