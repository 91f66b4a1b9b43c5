// Solver work-count golden: pins the pivots, not only the answers.
//
// Seeded scheduler-shaped MILPs (the micro_solver generator) are solved under
// a fixed node budget, and each solve's work counts (B&B nodes, LP pivots by
// phase, FTRAN/BTRAN, refactorizations, warm-started nodes) and objective are
// diffed against tests/golden/solver_work.csv. A performance change to the
// solver that claims "same pivots" must leave this file byte-identical; a
// change that moves the search shows up here row by row.
//
// Updating the golden after an INTENTIONAL change to the search:
//
//   THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/solver_work_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/snapshot/snapshot_io.h"
#include "src/solver/milp.h"
#include "src/solver/synthetic.h"

namespace threesigma {
namespace {

std::string WorkCsv() {
  std::ostringstream csv;
  csv << "seed,jobs,max_nodes,basis_warmstart,status,objective,nodes,lp_iterations,"
         "phase1,phase2,dual,ftran,btran,refactorizations,warm_started_nodes\n";
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    for (const int jobs : {8, 16, 32}) {
      Rng rng(seed);
      std::vector<int> int_vars;
      const LpModel model = SchedulerShapedModel(jobs, 12, 24, rng, &int_vars);
      for (const int max_nodes : {6, 64}) {
        // Warm children resume their parent's factored state; cold nodes
        // solve their bound overlay from a slack basis. Both paths are
        // pinned.
        for (const bool warm : {true, false}) {
          MilpOptions options;
          options.max_nodes = max_nodes;
          options.basis_warmstart = warm;
          MilpSolver solver(LpCore(model), int_vars);
          const MilpSolution s = solver.Solve(options);
          char objective[32];
          std::snprintf(objective, sizeof(objective), "%.17g", s.objective);
          csv << seed << ',' << jobs << ',' << max_nodes << ',' << warm << ','
              << static_cast<int>(s.status) << ',' << objective << ',' << s.nodes_explored
              << ',' << s.lp_iterations << ',' << s.lp_phase1_iterations << ','
              << s.lp_phase2_iterations << ',' << s.lp_dual_iterations << ',' << s.ftran_count
              << ',' << s.btran_count << ',' << s.refactorizations << ','
              << s.warm_started_nodes << '\n';
        }
      }
    }
  }
  return csv.str();
}

TEST(SolverWorkGoldenTest, SchedulerShapedWorkCountsUnchanged) {
  const std::string actual = WorkCsv();
  const std::string path = std::string(GOLDEN_DIR) + "/solver_work.csv";
  std::string error;
  if (GetEnvInt("THREESIGMA_UPDATE_GOLDENS", 0) != 0) {
    ASSERT_TRUE(WriteFileAtomic(path, actual, &error)) << error;
    return;
  }
  std::string expected;
  ASSERT_TRUE(ReadFileToString(path, &expected, &error))
      << "missing golden '" << path << "' — generate it with THREESIGMA_UPDATE_GOLDENS=1";
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(static_cast<bool>(std::getline(got, got_line))) << "missing line " << line;
    EXPECT_EQ(want_line, got_line) << "solver work moved at line " << line;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(got, got_line))) << "extra line " << line + 1;
}

}  // namespace
}  // namespace threesigma
