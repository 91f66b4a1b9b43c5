// Ablation: plan-ahead window and start-slot granularity (§4.3.3/§4.3.6).
//
// The plan-ahead window bounds the MILP's time dimension; slots trade
// deferral precision against solver cost. Expected: too-short windows lose
// deferral opportunities (more misses); more slots help until solver budget
// dominates, with cycle time growing in the slot count.

#include <iostream>

#include "bench/bench_util.h"

using namespace threesigma;

int main() {
  struct Point {
    double planahead;
    int slots;
  };
  const std::vector<Point> sweep = {{300.0, 3}, {600.0, 4}, {1200.0, 6}, {2400.0, 8},
                                    {2400.0, 12}};

  ExperimentConfig config = MakeE2EConfig(/*base_hours=*/0.4);
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  PrintHeaderBlock("Ablation: plan-ahead window x slot granularity (3Sigma)",
                   "Expectation: short windows hurt deferral; slots cost solver time",
                   workload);

  TablePrinter table({"planahead (s)", "slots", "SLO miss %", "BE lat (s)",
                      "mean cycle (ms)", "max vars"});
  for (const Point& p : sweep) {
    ExperimentConfig c = config;
    c.sched.planahead = p.planahead;
    c.sched.num_start_slots = p.slots;
    const RunMetrics m = RunSystem(SystemKind::kThreeSigma, c, workload);
    table.AddRow({TablePrinter::Fmt(p.planahead, 0), std::to_string(p.slots),
                  TablePrinter::Fmt(m.slo_miss_rate_percent, 1),
                  TablePrinter::Fmt(m.mean_be_latency_seconds, 0),
                  TablePrinter::Fmt(m.mean_cycle_seconds * 1000, 1),
                  std::to_string(m.cycle_max.milp_variables)});
  }
  table.Print(std::cout);
  return 0;
}
