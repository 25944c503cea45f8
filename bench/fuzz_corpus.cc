// Differential fuzz campaign driver.
//
//   fuzz_corpus [--seed-start N] [--seed-count N] [--time-budget-s S]
//               [--shrink] [--out-dir DIR] [--repro FILE...]
//
// Default mode generates instances for seeds [seed-start, seed-start +
// seed-count) and runs the full `MiningOracle` pass on each; the first
// divergence is (optionally) shrunk and written as a `.repro` file ready
// to drop into tests/regressions/.  With `--repro`, the named files are
// re-run instead — the "replay a regression by hand" workflow from
// docs/correctness.md.  Exit code 0 means zero divergences.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "testing/instance.h"
#include "testing/mining_oracle.h"
#include "testing/shrinker.h"

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed_start = 1;
  uint64_t seed_count = 500;
  double time_budget_s = 0.0;  // 0 = no budget
  bool shrink = false;
  std::string out_dir = ".";
  std::vector<std::string> repro_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed-start") {
      seed_start = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seed-count") {
      seed_count = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--time-budget-s") {
      time_budget_s = std::strtod(value(), nullptr);
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--out-dir") {
      out_dir = value();
    } else if (arg == "--repro") {
      repro_files.push_back(value());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const trajpattern::MiningOracle oracle;

  if (!repro_files.empty()) {
    int failures = 0;
    for (const std::string& path : repro_files) {
      trajpattern::FuzzInstance inst;
      const trajpattern::Status s =
          trajpattern::ReadInstanceFile(path, &inst);
      if (!s.ok()) {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                     s.ToString().c_str());
        ++failures;
        continue;
      }
      const trajpattern::OracleReport report = oracle.Check(inst);
      if (report.ok()) {
        std::printf("PASS %s (%d mining runs%s%s%s%s)\n", path.c_str(),
                    report.mining_runs,
                    report.brute_force_checked ? ", brute-force" : "",
                    report.ingestion_checked ? ", ingestion" : "",
                    report.memo_bounds_checked ? ", memo-bounds" : "",
                    report.frontier_checked ? ", frontier" : "");
      } else {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                     report.divergence.c_str());
        ++failures;
      }
    }
    return failures == 0 ? 0 : 1;
  }

  const double t0 = NowSeconds();
  uint64_t checked = 0, brute = 0, ingestion = 0, warm_order = 0,
           memo_bounds = 0, frontier = 0;
  for (uint64_t seed = seed_start; seed < seed_start + seed_count; ++seed) {
    if (time_budget_s > 0.0 && NowSeconds() - t0 > time_budget_s) {
      std::printf("time budget reached after %llu seeds\n",
                  static_cast<unsigned long long>(checked));
      break;
    }
    const trajpattern::FuzzInstance inst =
        trajpattern::GenerateInstance(seed);
    const trajpattern::OracleReport report = oracle.Check(inst);
    ++checked;
    if (report.brute_force_checked) ++brute;
    if (report.ingestion_checked) ++ingestion;
    if (report.warm_order_checked) ++warm_order;
    if (report.memo_bounds_checked) ++memo_bounds;
    if (report.frontier_checked) ++frontier;
    if (!report.ok()) {
      std::fprintf(stderr, "DIVERGENCE at seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   report.divergence.c_str());
      trajpattern::FuzzInstance repro = inst;
      if (shrink) {
        const trajpattern::Shrinker shrinker;
        repro = shrinker.Shrink(inst, [&](const trajpattern::FuzzInstance& c) {
          return !oracle.Check(c).ok();
        });
        std::fprintf(stderr, "shrunk: %s\n",
                     oracle.Check(repro).divergence.c_str());
      }
      const std::string path =
          out_dir + "/seed_" + std::to_string(seed) + ".repro";
      const trajpattern::Status w =
          trajpattern::WriteInstanceFile(repro, path);
      std::fprintf(stderr, "repro %s: %s\n", path.c_str(),
                   w.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "OK: %llu seeds, 0 divergences (%llu brute-force-checked, %llu "
      "ingestion-bearing, %llu warm-order-checked, "
      "%llu memo-bounds-checked, %llu frontier-checked, %.1fs)\n",
      static_cast<unsigned long long>(checked),
      static_cast<unsigned long long>(brute),
      static_cast<unsigned long long>(ingestion),
      static_cast<unsigned long long>(warm_order),
      static_cast<unsigned long long>(memo_bounds),
      static_cast<unsigned long long>(frontier), NowSeconds() - t0);
  return 0;
}
