// Ablation: equivalence-set (node-group) count at fixed cluster size
// (§4.3.3: "the complexity of MILP depends on the number of equivalence sets
// rather than the cluster size").
//
// Expected: MILP variables/rows and solver time grow with the group count,
// not the 256-node cluster size; scheduling quality is fairly insensitive
// (more groups = finer placement choices but smaller groups cap gang width).

#include <iostream>

#include "bench/bench_util.h"

using namespace threesigma;

int main() {
  struct Point {
    int groups;
    int nodes_per_group;
  };
  const std::vector<Point> sweep = {{2, 128}, {4, 64}, {8, 32}, {16, 16}};

  std::cout << "==== Ablation: equivalence sets at a fixed 256 nodes (3Sigma) ====\n";
  std::cout << "Expectation: solver cost tracks group count, not node count\n\n";

  TablePrinter table({"groups", "nodes/group", "SLO miss %", "goodput (M-hr)",
                      "mean solver (ms)", "max vars", "max rows"});
  for (const Point& p : sweep) {
    ExperimentConfig config = MakeE2EConfig(/*base_hours=*/0.4);
    config.cluster = ClusterConfig::Uniform(p.groups, p.nodes_per_group);
    const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
    const RunMetrics m = RunSystem(SystemKind::kThreeSigma, config, workload);
    table.AddRow({std::to_string(p.groups), std::to_string(p.nodes_per_group),
                  TablePrinter::Fmt(m.slo_miss_rate_percent, 1),
                  TablePrinter::Fmt(m.goodput_machine_hours, 1),
                  TablePrinter::Fmt(m.mean_solver_seconds * 1000, 1),
                  std::to_string(m.cycle_max.milp_variables),
                  std::to_string(m.cycle_max.milp_rows)});
  }
  table.Print(std::cout);
  std::cout << "\nNote: workloads are regenerated per cluster shape (gang width is capped\n"
               "at the group size), so rows compare configurations, not identical jobs.\n";
  return 0;
}
