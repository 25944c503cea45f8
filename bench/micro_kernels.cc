// Engineering micro-benchmarks (google-benchmark) for the hot kernels:
// the probability kernel, NM evaluation, grid mapping, and the data
// generators.  Not a paper figure; used to track library performance.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/miner.h"
#include "core/nm_engine.h"
#include "core/simd_kernels.h"
#include "datagen/uniform_generator.h"
#include "datagen/zebranet_generator.h"
#include "index/grid_index.h"
#include "prob/normal.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

void BM_ProbWithinDeltaRect(benchmark::State& state) {
  const Point2 l(0.31, 0.54);
  const Point2 p(0.33, 0.55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ProbWithinDelta(l, 0.01, p, 0.02, IndifferenceModel::kRectangular));
  }
}
BENCHMARK(BM_ProbWithinDeltaRect);

void BM_ProbWithinDeltaRadial(benchmark::State& state) {
  const Point2 l(0.31, 0.54);
  const Point2 p(0.33, 0.55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ProbWithinDelta(l, 0.01, p, 0.02, IndifferenceModel::kRadial));
  }
}
BENCHMARK(BM_ProbWithinDeltaRadial);

/// One factor pass's arguments: every snapshot's mean and sigma on one
/// axis, and the grid's cell boxes [center - delta, center + delta].
struct IntervalMix {
  std::vector<double> means, sigmas, centers;
  double delta = 0.0;
};

/// ZebraNet as perfbench's zebra_scan mines it: 240 zebras x 40
/// snapshots, sigma 0.006, a 10 x 10 unit grid with delta one cell, so
/// boxes 33 sigma wide; most entries take the floor or +0.0 shortcut.
IntervalMix ZebraMix() {
  ZebraNetGeneratorOptions opt;
  opt.num_zebras = 240;
  opt.num_groups = 24;
  opt.num_snapshots = 40;
  opt.sigma = 0.006;
  IntervalMix mix;
  for (const auto& t : GenerateZebraNet(opt)) {
    for (const auto& p : t) {
      mix.means.push_back(p.mean.x);
      mix.sigmas.push_back(p.sigma);
    }
  }
  for (int c = 0; c < 10; ++c) mix.centers.push_back(0.05 + 0.1 * c);
  mix.delta = 0.1;
  return mix;
}

/// Bus velocities as perfbench's bus_pipeline mines them: sigma 0.00707,
/// means over [-0.094, 0.086], a 24-cell axis with delta half a cell, so
/// boxes 1.3 sigma wide; most entries need both tails.
IntervalMix BusMix() {
  Rng rng(11);
  IntervalMix mix;
  for (int i = 0; i < 12000; ++i) {
    mix.means.push_back(rng.Uniform(-0.094, 0.086));
    mix.sigmas.push_back(0.00707);
  }
  const double width = 0.188 / 24;
  for (int c = 0; c < 24; ++c) mix.centers.push_back(-0.094 + width * (c + 0.5));
  mix.delta = 0.5 * width;
  return mix;
}

/// One factor pass per grid column over the mix: range(0) picks the mix
/// (0 ZebraNet, 1 bus), range(1) the kernel (0 dispatched, 1 portable).
void BM_LogIntervalProbColumn(benchmark::State& state) {
  const IntervalMix mix = state.range(0) == 0 ? ZebraMix() : BusMix();
  const auto column = state.range(1) == 0 ? &simd::LogIntervalProbColumn
                                          : &simd::LogIntervalProbColumnPortable;
  const size_t n = mix.means.size();
  std::vector<double> out(n);
  for (auto _ : state) {
    for (const double c : mix.centers) {
      column(mix.means.data(), mix.sigmas.data(), c - mix.delta, c + mix.delta,
             out.data(), n);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * mix.centers.size()));
  state.SetLabel(state.range(1) == 0 ? simd::ActiveLevelName() : "portable");
}
BENCHMARK(BM_LogIntervalProbColumn)
    ->ArgNames({"bus", "portable"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/// A prefix level and `columns` tile columns of n snapshots, in the
/// walk's value ranges.
struct ScanInputs {
  ScanInputs(size_t n, size_t columns) : w(n), t(columns, std::vector<double>(n)) {
    Rng rng(13);
    for (size_t i = 0; i < n; ++i) {
      w[i] = -rng.Uniform(0.0, 30.0);
      for (auto& column : t) column[i] = -rng.Uniform(0.0, 30.0);
    }
  }
  std::vector<double> w;
  std::vector<std::vector<double>> t;
};

void BM_SimdFusedMaxSum(benchmark::State& state) {
  // The walk's last position: a prefix level plus one position's tile
  // column.  The walk calls it once per trajectory, so n = 38 and 96 are
  // the zebra and bus trajectory lengths.
  const size_t n = static_cast<size_t>(state.range(0));
  const ScanInputs in(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::FusedMaxSum(in.w.data(), in.t[0].data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(simd::ActiveLevelName());
}
BENCHMARK(BM_SimdFusedMaxSum)->Arg(38)->Arg(96)->Arg(2400)->Arg(19200);

void BM_SimdFusedMaxSumGroup(benchmark::State& state) {
  // A scan group: `groups` candidates that share the prefix level and
  // differ in their last column, one call per trajectory.  Items are
  // column elements, so the rate compares with BM_SimdFusedMaxSum's.
  const size_t groups = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const ScanInputs in(n, groups);
  const double* t[simd::kMaxGroup];
  for (size_t g = 0; g < groups; ++g) t[g] = in.t[g].data();
  double best[simd::kMaxGroup];
  for (auto _ : state) {
    simd::FusedMaxSumGroup(in.w.data(), t, groups, n, best);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(groups * n));
  state.SetLabel(simd::ActiveLevelName());
}
BENCHMARK(BM_SimdFusedMaxSumGroup)
    ->ArgsProduct({{2, 3, 4}, {38, 96, 2400}});

void BM_GridCellOf(benchmark::State& state) {
  const Grid grid = Grid::UnitSquare(32);
  double x = 0.0;
  for (auto _ : state) {
    x += 1e-4;
    if (x > 1.0) x = 0.0;
    benchmark::DoNotOptimize(grid.CellOf(Point2(x, 1.0 - x)));
  }
}
BENCHMARK(BM_GridCellOf);

void BM_NmTotal(benchmark::State& state) {
  UniformGeneratorOptions opt;
  opt.num_objects = static_cast<int>(state.range(0));
  opt.num_snapshots = 50;
  opt.seed = 3;
  const TrajectoryDataset d = GenerateUniformObjects(opt);
  const MiningSpace space(Grid::UnitSquare(16), 0.0625);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  const Pattern p(std::vector<CellId>{cells[0], cells[1 % cells.size()],
                                      cells[2 % cells.size()]});
  // Warm the factor vectors so the steady-state evaluation cost is
  // measured.
  engine.NmTotal(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.NmTotal(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(d.TotalPoints()));
}
BENCHMARK(BM_NmTotal)->Arg(16)->Arg(64)->Arg(256);

void BM_NmTotalBatch(benchmark::State& state) {
  UniformGeneratorOptions opt;
  opt.num_objects = 64;
  opt.num_snapshots = 50;
  opt.seed = 3;
  const TrajectoryDataset d = GenerateUniformObjects(opt);
  const MiningSpace space(Grid::UnitSquare(16), 0.0625);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  // A mining-iteration-shaped batch: every touched-cell pair.
  std::vector<Pattern> batch;
  for (CellId a : cells) {
    for (CellId b : cells) {
      batch.push_back(Pattern(std::vector<CellId>{a, b}));
      if (batch.size() >= 512) break;
    }
    if (batch.size() >= 512) break;
  }
  const int threads = static_cast<int>(state.range(0));
  engine.NmTotalBatch(batch, threads);  // warm columns + pool
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.NmTotalBatch(batch, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_NmTotalBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Fixture of the window-scan benchmark: a Fig. 4-scale ZebraNet
/// workload plus a mining-iteration-shaped candidate batch (singulars,
/// pairs, and triples over the touched alphabet).
struct WindowKernelFixture {
  WindowKernelFixture() {
    ZebraNetGeneratorOptions opt;
    opt.num_zebras = 60;
    opt.num_snapshots = 40;
    opt.sigma = 0.006;
    opt.seed = 1;
    data = GenerateZebraNet(opt);
    const Grid grid = Grid::UnitSquare(10);
    space = std::make_unique<MiningSpace>(
        grid, std::max(grid.cell_width(), grid.cell_height()));
    engine = std::make_unique<NmEngine>(data, *space);
    const auto cells = engine->TouchedCells();
    for (CellId c : cells) {
      if (batch.size() >= 1024) break;
      batch.push_back(Pattern(c));
    }
    for (CellId a : cells) {
      for (CellId b : cells) {
        if (batch.size() >= 1024) break;
        batch.push_back(Pattern(std::vector<CellId>{a, b}));
      }
      if (batch.size() >= 1024) break;
    }
    for (CellId a : cells) {
      for (CellId b : cells) {
        if (batch.size() >= 1024) break;
        batch.push_back(Pattern(std::vector<CellId>{a, b, a}));
      }
      if (batch.size() >= 1024) break;
    }
    engine->NmTotalBatch(batch, 1);  // warm every column
  }

  TrajectoryDataset data;
  std::unique_ptr<MiningSpace> space;
  std::unique_ptr<NmEngine> engine;
  std::vector<Pattern> batch;
};

WindowKernelFixture& SharedWindowKernelFixture() {
  static WindowKernelFixture fixture;
  return fixture;
}

void BM_WindowKernelStreaming(benchmark::State& state) {
  auto& fx = SharedWindowKernelFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.engine->NmTotalBatch(fx.batch, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.batch.size()));
}
BENCHMARK(BM_WindowKernelStreaming)->Unit(benchmark::kMillisecond);

void BM_ZebraNetGenerate(benchmark::State& state) {
  ZebraNetGeneratorOptions opt;
  opt.num_zebras = static_cast<int>(state.range(0));
  opt.num_snapshots = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateZebraNet(opt));
  }
}
BENCHMARK(BM_ZebraNetGenerate)->Arg(50)->Arg(200);

void BM_MineSmall(benchmark::State& state) {
  UniformGeneratorOptions opt;
  opt.num_objects = 20;
  opt.num_snapshots = 20;
  opt.seed = 5;
  const TrajectoryDataset d = GenerateUniformObjects(opt);
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  for (auto _ : state) {
    NmEngine engine(d, space);
    MinerOptions mopt;
    mopt.k = 5;
    mopt.max_pattern_length = 3;
    benchmark::DoNotOptimize(MineTrajPatterns(engine, mopt));
  }
}
BENCHMARK(BM_MineSmall);

void BM_GridIndexUpsert(benchmark::State& state) {
  GridIndex index(Grid::UnitSquare(32));
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  std::vector<Point2> points;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    index.Upsert(i, points[i]);
  }
  int i = 0;
  for (auto _ : state) {
    // Move one object a little (the server's steady-state operation).
    Point2& p = points[i];
    p.x = p.x < 0.99 ? p.x + 0.01 : 0.0;
    index.Upsert(i, p);
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridIndexUpsert)->Arg(1000)->Arg(10000);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  GridIndex index(Grid::UnitSquare(32));
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    index.Upsert(i, Point2(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)));
  }
  double x = 0.1;
  for (auto _ : state) {
    x = x < 0.9 ? x + 0.001 : 0.1;
    benchmark::DoNotOptimize(index.QueryRadius(Point2(x, x), 0.05));
  }
}
BENCHMARK(BM_GridIndexRadiusQuery);

}  // namespace
}  // namespace trajpattern

BENCHMARK_MAIN();
