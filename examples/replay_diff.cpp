// replay_diff — deterministic-replay divergence finder.
//
// Resumes two snapshots (or one snapshot twice), steps both simulations
// cycle-by-cycle in lockstep, and bisects to the *first* scheduling cycle at
// which their serialized states diverge, reporting which module's section
// hash differs ("sched"? "rng"? "sim"?). Wall-clock timings live in their
// own "timing" section and are ignored, so any reported divergence is a real
// determinism break.
//
// The scan is two-phase: a coarse pass compares full state buffers every
// --stride cycles (saving the last matching pair), then on a mismatch both
// simulators are restored from that matching pair and re-stepped one cycle
// at a time to pin the exact cycle.
//
//   ./build/examples/replay_diff --a=ckpt.snap                      # self-check
//   ./build/examples/replay_diff --a=ckpt.snap --perturb-rng-b      # forced diff
//   ./build/examples/replay_diff --a=run1.snap --b=run2.snap        # two runs

#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/core/experiment.h"
#include "src/snapshot/snapshot_io.h"

using namespace threesigma;

namespace {

constexpr const char* kIgnoredSections[] = {"timing"};

struct Replica {
  CheckpointInfo info;
  SystemInstance instance;
  std::unique_ptr<Simulator> sim;
};

bool BuildReplica(const std::string& path, SystemKind kind, const DistSchedulerConfig& sched,
                  Replica* out, std::string* error) {
  if (!Simulator::PeekCheckpoint(path, &out->info, error)) {
    return false;
  }
  out->instance = MakeSystem(kind, out->info.cluster, sched);
  out->sim = std::make_unique<Simulator>(out->info.cluster, out->instance.scheduler.get(),
                                         std::vector<JobSpec>{}, out->info.options);
  return out->sim->TryResumeFrom(path, error);
}

// Serialized state with wall-clock timings excluded from comparison.
bool StatesEqual(const std::string& a, const std::string& b) {
  return DiffSnapshotSections(a, b, {kIgnoredSections[0]}).empty();
}

void DumpDivergence(uint64_t cycle, const std::string& a, const std::string& b) {
  std::cout << "FIRST DIVERGENT CYCLE: " << cycle << "\n";
  const std::vector<std::string> diff = DiffSnapshotSections(a, b, {kIgnoredSections[0]});
  std::vector<SnapshotSection> sections_a;
  std::vector<SnapshotSection> sections_b;
  ListSnapshotSections(a, &sections_a);
  ListSnapshotSections(b, &sections_b);
  const auto find = [](const std::vector<SnapshotSection>& sections, const std::string& name) {
    for (const SnapshotSection& s : sections) {
      if (s.name == name) {
        return &s;
      }
    }
    return static_cast<const SnapshotSection*>(nullptr);
  };
  std::cout << "diverged sections (module state hashes):\n";
  for (const std::string& name : diff) {
    const SnapshotSection* sa = find(sections_a, name);
    const SnapshotSection* sb = find(sections_b, name);
    std::cout << "  " << name << ": A ";
    if (sa != nullptr) {
      std::cout << std::hex << sa->hash << std::dec << " (" << sa->payload_size << " B)";
    } else {
      std::cout << "<absent>";
    }
    std::cout << "  B ";
    if (sb != nullptr) {
      std::cout << std::hex << sb->hash << std::dec << " (" << sb->payload_size << " B)";
    } else {
      std::cout << "<absent>";
    }
    std::cout << "\n";
  }
  std::cout << "matching sections:";
  for (const SnapshotSection& s : sections_a) {
    bool diverged = false;
    for (const std::string& name : diff) {
      diverged = diverged || name == s.name;
    }
    if (!diverged && s.name != kIgnoredSections[0]) {
      std::cout << " " << s.name;
    }
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string a_path;
  std::string b_path;
  std::string system_name = "3Sigma";
  int64_t stride = 8;
  int64_t max_cycles = 0;
  bool perturb_rng_b = false;

  FlagParser parser(
      "replay_diff — resume two snapshots (or one twice), step them in\n"
      "lockstep, and bisect to the first cycle whose module state hashes\n"
      "diverge.");
  parser.AddString("a", &a_path, "snapshot file for replica A (required)")
      .AddString("b", &b_path, "snapshot file for replica B (default: same as --a)")
      .AddString("system", &system_name, "Table 1 system that wrote the snapshots")
      .AddInt("stride", &stride, "coarse scan interval in cycles before bisecting")
      .AddInt("max-cycles", &max_cycles, "stop scanning after this many cycles (0 = drain)")
      .AddBool("perturb-rng-b", &perturb_rng_b,
               "burn one RNG draw on replica B before stepping (injects a known "
               "divergence to exercise the bisection)");
  if (!parser.Parse(argc, argv)) {
    return parser.exit_code();
  }
  if (a_path.empty()) {
    std::cerr << "--a is required\n";
    return 1;
  }
  if (b_path.empty()) {
    b_path = a_path;
  }
  if (stride < 1) {
    stride = 1;
  }
  SystemKind kind = SystemKind::kThreeSigma;
  {
    bool found = false;
    for (SystemKind k : {SystemKind::kThreeSigma, SystemKind::kThreeSigmaNoDist,
                         SystemKind::kThreeSigmaNoOE, SystemKind::kThreeSigmaNoAdapt,
                         SystemKind::kPointPerfEst, SystemKind::kPointRealEst,
                         SystemKind::kPrio}) {
      if (system_name == SystemName(k)) {
        kind = k;
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown system '" << system_name << "'\n";
      return 1;
    }
  }

  DistSchedulerConfig sched;
  Replica a;
  Replica b;
  std::string error;
  if (!BuildReplica(a_path, kind, sched, &a, &error)) {
    std::cerr << "cannot resume A from '" << a_path << "': " << error << "\n";
    return 1;
  }
  if (!BuildReplica(b_path, kind, sched, &b, &error)) {
    std::cerr << "cannot resume B from '" << b_path << "': " << error << "\n";
    return 1;
  }
  if (perturb_rng_b) {
    b.sim->DebugPerturbRng();
  }

  std::cout << "A: " << a_path << " at cycle " << a.info.cycles_completed << ", t="
            << a.info.now << "\n";
  std::cout << "B: " << b_path << " at cycle " << b.info.cycles_completed << ", t="
            << b.info.now << "\n";

  // Baseline check before stepping at all.
  std::string last_equal_a = a.sim->SaveStateToBuffer();
  std::string last_equal_b = b.sim->SaveStateToBuffer();
  if (!StatesEqual(last_equal_a, last_equal_b)) {
    DumpDivergence(a.sim->cycles_completed(), last_equal_a, last_equal_b);
    return 2;
  }

  // Coarse scan: compare every `stride` cycles, remembering the last equal
  // state pair as the bisection anchor.
  uint64_t scanned = 0;
  bool diverged = false;
  while (!diverged) {
    bool a_alive = true;
    bool b_alive = true;
    for (int64_t i = 0; i < stride && (a_alive || b_alive); ++i) {
      a_alive = a.sim->Step();
      b_alive = b.sim->Step();
      ++scanned;
      if (a_alive != b_alive) {
        std::cout << "FIRST DIVERGENT CYCLE: " << a.sim->cycles_completed()
                  << " (replica " << (a_alive ? "B" : "A") << " drained first)\n";
        return 2;
      }
      if (max_cycles > 0 && scanned >= static_cast<uint64_t>(max_cycles)) {
        break;
      }
    }
    const std::string state_a = a.sim->SaveStateToBuffer();
    const std::string state_b = b.sim->SaveStateToBuffer();
    if (StatesEqual(state_a, state_b)) {
      last_equal_a = state_a;
      last_equal_b = state_b;
      if (!a_alive || (max_cycles > 0 && scanned >= static_cast<uint64_t>(max_cycles))) {
        std::cout << "no divergence through cycle " << a.sim->cycles_completed()
                  << (a_alive ? " (scan limit reached)" : " (both replicas drained)") << "\n";
        return 0;
      }
      continue;
    }
    diverged = true;
  }

  // Bisect: rewind both replicas to the last matching state, then re-step one
  // cycle at a time to pin the first divergent cycle.
  a.sim->RestoreStateFromBuffer(last_equal_a);
  b.sim->RestoreStateFromBuffer(last_equal_b);
  while (true) {
    const bool a_alive = a.sim->Step();
    const bool b_alive = b.sim->Step();
    if (a_alive != b_alive) {
      std::cout << "FIRST DIVERGENT CYCLE: " << a.sim->cycles_completed()
                << " (replica " << (a_alive ? "B" : "A") << " drained first)\n";
      return 2;
    }
    const std::string state_a = a.sim->SaveStateToBuffer();
    const std::string state_b = b.sim->SaveStateToBuffer();
    if (!StatesEqual(state_a, state_b)) {
      DumpDivergence(a.sim->cycles_completed(), state_a, state_b);
      return 2;
    }
    if (!a_alive) {
      // The coarse pass saw a diff but the replay does not: the divergence
      // was not reproducible from serialized state — report loudly.
      std::cout << "divergence seen in coarse scan did not reproduce after rewind\n";
      return 3;
    }
  }
}
