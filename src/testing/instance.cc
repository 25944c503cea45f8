#include "testing/instance.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "prob/rng.h"

namespace trajpattern {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool ParseHex(const std::string& s, double* v) {
  if (s.empty()) return false;
  char* end = nullptr;
  *v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseU64(const std::string& s, uint64_t* v) {
  try {
    size_t pos = 0;
    *v = std::stoull(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool ParseLong(const std::string& s, long* v) {
  try {
    size_t pos = 0;
    *v = std::stol(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) out.push_back(field);
  if (!line.empty() && line.back() == ',') out.emplace_back();
  return out;
}

/// A sigma drawn from the degenerate-to-huge spectrum the validator and
/// the probability floor are supposed to absorb.
double PickSigma(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: return 1e-9;                     // needle-sharp belief
    case 1: return rng.Uniform(1e-4, 1e-2);  // precise fix
    case 2: return rng.Uniform(0.02, 0.2);   // the paper's regime
    case 3: return rng.Uniform(0.5, 2.0);    // belief wider than a cell
    case 4: return 1e6;                      // knows nothing
    default: return 0.05;
  }
}

}  // namespace

MiningSpace FuzzInstance::Space() const {
  const BoundingBox box(Point2(box_min_x, box_min_y),
                        Point2(box_max_x, box_max_y));
  return MiningSpace(Grid(box, nx, ny), delta);
}

MinerOptions FuzzInstance::Options() const {
  MinerOptions opt;
  opt.k = k;
  opt.min_length = min_length;
  opt.max_pattern_length = max_pattern_length;
  opt.max_wildcards = max_wildcards;
  opt.num_threads = 1;
  return opt;
}

Synchronizer::Options FuzzInstance::SyncOptions() const {
  Synchronizer::Options opt;
  opt.start_time = 0.0;
  opt.interval = sync_interval;
  opt.num_snapshots = sync_snapshots;
  opt.base_sigma = sync_base_sigma;
  opt.sigma_growth = sync_sigma_growth;
  return opt;
}

FuzzInstance GenerateInstance(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FuzzInstance inst;
  inst.seed = seed;

  // Space: mostly small grids (the brute-force oracle needs a small
  // alphabet), occasionally huge or skinny ones to stress cell indexing.
  inst.nx = rng.UniformInt(1, 5);
  inst.ny = rng.UniformInt(1, 5);
  if (rng.Bernoulli(0.08)) inst.nx = rng.UniformInt(32, 64);
  if (rng.Bernoulli(0.08)) inst.ny = 1;  // degenerate 1-row strip
  if (rng.Bernoulli(0.5)) {
    inst.box_min_x = 0.0;
    inst.box_min_y = 0.0;
    inst.box_max_x = 1.0;
    inst.box_max_y = 1.0;
  } else {
    inst.box_min_x = rng.Uniform(-10.0, 0.0);
    inst.box_min_y = rng.Uniform(-10.0, 0.0);
    inst.box_max_x = inst.box_min_x + rng.Uniform(0.1, 20.0);
    inst.box_max_y = inst.box_min_y + rng.Uniform(0.1, 20.0);
  }
  const double cell_w = (inst.box_max_x - inst.box_min_x) / inst.nx;
  const double cell_h = (inst.box_max_y - inst.box_min_y) / inst.ny;
  // Delta: sometimes exactly half a cell pitch, so the indifference disc
  // ends exactly on cell edges — the near-delta boundary regime.
  switch (rng.UniformInt(0, 3)) {
    case 0: inst.delta = 0.5 * cell_w; break;
    case 1: inst.delta = rng.Uniform(1e-4, 0.1 * cell_w); break;
    case 2: inst.delta = rng.Uniform(0.5, 2.0) * std::max(cell_w, cell_h); break;
    default: inst.delta = 0.25 * std::min(cell_w, cell_h); break;
  }

  // Dataset: a few trajectories spanning empty, 1-snapshot, and normal
  // lengths; points favor cell centers, cell edges, and out-of-box spots.
  const int num_traj = rng.UniformInt(0, 6);
  Grid grid(BoundingBox(Point2(inst.box_min_x, inst.box_min_y),
                        Point2(inst.box_max_x, inst.box_max_y)),
            inst.nx, inst.ny);
  for (int t = 0; t < num_traj; ++t) {
    int len = rng.UniformInt(0, 10);
    if (rng.Bernoulli(0.15)) len = rng.UniformInt(0, 1);
    Trajectory traj("fuzz_" + std::to_string(t));
    Point2 prev(rng.Uniform(inst.box_min_x, inst.box_max_x),
                rng.Uniform(inst.box_min_y, inst.box_max_y));
    for (int s = 0; s < len; ++s) {
      Point2 p = prev;
      switch (rng.UniformInt(0, 4)) {
        case 0:  // exact cell center
          p = grid.CenterOf(grid.CellOf(prev));
          break;
        case 1: {  // exactly on a shared cell edge
          const int col = rng.UniformInt(0, inst.nx);
          const int row = rng.UniformInt(0, inst.ny);
          p = Point2(inst.box_min_x + col * cell_w,
                     inst.box_min_y + row * cell_h);
          break;
        }
        case 2:  // outside the bounding box (clamped by CellOf)
          p = Point2(inst.box_max_x + rng.Uniform(0.0, 5.0),
                     inst.box_min_y - rng.Uniform(0.0, 5.0));
          break;
        case 3:  // duplicate of the previous position (zero displacement)
          break;
        default:
          p = Point2(prev.x + rng.Normal(0.0, 0.3 * cell_w),
                     prev.y + rng.Normal(0.0, 0.3 * cell_h));
          break;
      }
      traj.Append(p, PickSigma(rng));
      prev = p;
    }
    inst.data.Add(std::move(traj));
  }

  // Ingestion-bearing streams on a third of the instances: unsorted and
  // duplicate timestamps, zero-gap pairs, bursts before the first
  // snapshot — the raw material of the synchronizer/validator oracle.
  if (rng.Bernoulli(0.33)) {
    inst.sync_snapshots = rng.UniformInt(1, 8);
    inst.sync_interval = rng.Bernoulli(0.2) ? 0.25 : 1.0;
    inst.sync_base_sigma = 0.05;
    inst.sync_sigma_growth = rng.Bernoulli(0.5) ? 0.01 : 0.0;
    const int streams = rng.UniformInt(1, 3);
    for (int o = 0; o < streams; ++o) {
      std::vector<LocationReport> reports;
      const int nr = rng.UniformInt(0, 8);
      double time = rng.Uniform(-2.0, 1.0);
      for (int r = 0; r < nr; ++r) {
        LocationReport rep;
        rep.time = time;
        rep.location = Point2(rng.Uniform(inst.box_min_x, inst.box_max_x),
                              rng.Uniform(inst.box_min_y, inst.box_max_y));
        reports.push_back(rep);
        switch (rng.UniformInt(0, 3)) {
          case 0: break;  // duplicate timestamp next (zero-gap pair)
          case 1: time -= rng.Uniform(0.1, 1.0); break;  // out of order
          default: time += rng.Uniform(0.1, 2.0); break;
        }
      }
      inst.report_streams.push_back(std::move(reports));
    }
  }

  // Mining knobs.
  inst.k = rng.UniformInt(1, 6);
  inst.max_pattern_length = static_cast<size_t>(rng.UniformInt(1, 3));
  inst.min_length =
      rng.Bernoulli(0.25)
          ? static_cast<size_t>(rng.UniformInt(
                2, static_cast<int>(inst.max_pattern_length) + 1))
          : 0;
  inst.max_wildcards = rng.Bernoulli(0.3) ? rng.UniformInt(1, 2) : 0;
  inst.num_threads = rng.UniformInt(2, 8);
  inst.kill_iteration = rng.UniformInt(1, 3);
  // Huge grids can put hundreds of cells in the alphabet (a wide sigma
  // touches all of them), and the exact (no-beam) candidate pair loop is
  // quadratic in the frontier.  Keep those instances singular: they are
  // here to stress cell indexing and column caching, not the clock.
  if (inst.nx * inst.ny > 100) {
    inst.max_pattern_length = 1;
    inst.min_length = 0;
    inst.max_wildcards = 0;
  } else if (inst.nx * inst.ny > 12 && inst.max_pattern_length > 2) {
    // Mid-size grids with length-3 patterns still blow up: ~25 touched
    // cells at length 3 is a ~16k-pattern score table and an |H|x|Q|
    // pair walk in the hundreds of millions per iteration.  Length 2
    // keeps the same code paths hot at a bounded cost.
    inst.max_pattern_length = 2;
    if (inst.min_length > 2) inst.min_length = 2;
  }
  return inst;
}

void WriteInstance(const FuzzInstance& inst, std::ostream& os) {
  os << "trajpattern_repro,v1\n";
  os << "seed," << inst.seed << "\n";
  os << "box," << Hex(inst.box_min_x) << "," << Hex(inst.box_min_y) << ","
     << Hex(inst.box_max_x) << "," << Hex(inst.box_max_y) << "\n";
  os << "grid," << inst.nx << "," << inst.ny << "\n";
  os << "delta," << Hex(inst.delta) << "\n";
  os << "k," << inst.k << "\n";
  os << "min_length," << inst.min_length << "\n";
  os << "max_pattern_length," << inst.max_pattern_length << "\n";
  os << "max_wildcards," << inst.max_wildcards << "\n";
  os << "num_threads," << inst.num_threads << "\n";
  os << "kill_iteration," << inst.kill_iteration << "\n";
  os << "sync," << Hex(inst.sync_interval) << "," << inst.sync_snapshots << ","
     << Hex(inst.sync_base_sigma) << "," << Hex(inst.sync_sigma_growth)
     << "\n";
  os << "trajectories," << inst.data.size() << "\n";
  for (const Trajectory& t : inst.data) {
    os << "traj," << t.id() << "," << t.size() << "\n";
    for (const TrajectoryPoint& p : t) {
      os << Hex(p.mean.x) << "," << Hex(p.mean.y) << "," << Hex(p.sigma)
         << "\n";
    }
  }
  os << "report_streams," << inst.report_streams.size() << "\n";
  for (const auto& stream : inst.report_streams) {
    os << "stream," << stream.size() << "\n";
    for (const LocationReport& r : stream) {
      os << Hex(r.time) << "," << Hex(r.location.x) << ","
         << Hex(r.location.y) << "\n";
    }
  }
  os << "end\n";
}

Status ParseInstance(std::istream& is, FuzzInstance* inst) {
  FuzzInstance out;
  size_t line_no = 0;
  std::string line;
  auto error = [&](const std::string& what) {
    return Status::DataLoss("repro line " + std::to_string(line_no) + ": " +
                            what);
  };
  auto next = [&](const std::string& context) {
    if (!std::getline(is, line)) {
      line.clear();
      return Status::DataLoss("repro truncated before " + context);
    }
    ++line_no;
    return Status::Ok();
  };
  Status s = next("header");
  if (!s.ok()) return s;
  if (line != "trajpattern_repro,v1") {
    return error("not a trajpattern repro (bad header)");
  }

  // Fixed "key,fields..." preamble in declaration order.
  auto keyed = [&](const std::string& key, size_t nfields,
                   std::vector<std::string>* fields) {
    Status st = next(key);
    if (!st.ok()) return st;
    *fields = SplitFields(line);
    if (fields->empty() || (*fields)[0] != key ||
        fields->size() != nfields + 1) {
      return error("expected '" + key + "' with " + std::to_string(nfields) +
                   " fields");
    }
    return Status::Ok();
  };

  std::vector<std::string> f;
  if (!(s = keyed("seed", 1, &f)).ok()) return s;
  if (!ParseU64(f[1], &out.seed)) return error("bad seed");
  if (!(s = keyed("box", 4, &f)).ok()) return s;
  if (!ParseHex(f[1], &out.box_min_x) || !ParseHex(f[2], &out.box_min_y) ||
      !ParseHex(f[3], &out.box_max_x) || !ParseHex(f[4], &out.box_max_y)) {
    return error("bad box");
  }
  if (!(out.box_max_x > out.box_min_x) || !(out.box_max_y > out.box_min_y)) {
    return error("degenerate box");
  }
  long v1l, v2l;
  if (!(s = keyed("grid", 2, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || !ParseLong(f[2], &v2l) || v1l < 1 || v2l < 1 ||
      v1l > 4096 || v2l > 4096) {
    return error("bad grid dims");
  }
  out.nx = static_cast<int>(v1l);
  out.ny = static_cast<int>(v2l);
  if (!(s = keyed("delta", 1, &f)).ok()) return s;
  if (!ParseHex(f[1], &out.delta) || !(out.delta >= 0.0)) {
    return error("bad delta");
  }
  if (!(s = keyed("k", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 1 || v1l > 1000000) return error("bad k");
  out.k = static_cast<int>(v1l);
  if (!(s = keyed("min_length", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 0) return error("bad min_length");
  out.min_length = static_cast<size_t>(v1l);
  if (!(s = keyed("max_pattern_length", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 1 || v1l > 64) {
    return error("bad max_pattern_length");
  }
  out.max_pattern_length = static_cast<size_t>(v1l);
  if (!(s = keyed("max_wildcards", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 0 || v1l > 16) {
    return error("bad max_wildcards");
  }
  out.max_wildcards = static_cast<int>(v1l);
  if (!(s = keyed("num_threads", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 1 || v1l > 256) {
    return error("bad num_threads");
  }
  out.num_threads = static_cast<int>(v1l);
  if (!(s = keyed("kill_iteration", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 1 || v1l > 64) {
    return error("bad kill_iteration");
  }
  out.kill_iteration = static_cast<int>(v1l);
  if (!(s = keyed("sync", 4, &f)).ok()) return s;
  if (!ParseHex(f[1], &out.sync_interval) || !ParseLong(f[2], &v1l) ||
      v1l < 0 || v1l > 100000 || !ParseHex(f[3], &out.sync_base_sigma) ||
      !ParseHex(f[4], &out.sync_sigma_growth)) {
    return error("bad sync options");
  }
  out.sync_snapshots = static_cast<int>(v1l);

  if (!(s = keyed("trajectories", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 0 || v1l > 100000) {
    return error("bad trajectory count");
  }
  for (long t = 0; t < v1l; ++t) {
    if (!(s = keyed("traj", 2, &f)).ok()) return s;
    long npts;
    if (!ParseLong(f[2], &npts) || npts < 0 || npts > 1000000) {
      return error("bad point count");
    }
    Trajectory traj(f[1]);
    for (long p = 0; p < npts; ++p) {
      if (!(s = next("trajectory point")).ok()) return s;
      const std::vector<std::string> pt = SplitFields(line);
      double x, y, sigma;
      if (pt.size() != 3 || !ParseHex(pt[0], &x) || !ParseHex(pt[1], &y) ||
          !ParseHex(pt[2], &sigma)) {
        return error("bad trajectory point");
      }
      traj.Append(Point2(x, y), sigma);
    }
    out.data.Add(std::move(traj));
  }

  if (!(s = keyed("report_streams", 1, &f)).ok()) return s;
  if (!ParseLong(f[1], &v1l) || v1l < 0 || v1l > 100000) {
    return error("bad stream count");
  }
  for (long t = 0; t < v1l; ++t) {
    if (!(s = keyed("stream", 1, &f)).ok()) return s;
    long nrep;
    if (!ParseLong(f[1], &nrep) || nrep < 0 || nrep > 1000000) {
      return error("bad report count");
    }
    std::vector<LocationReport> stream;
    for (long r = 0; r < nrep; ++r) {
      if (!(s = next("report")).ok()) return s;
      const std::vector<std::string> rep = SplitFields(line);
      LocationReport lr;
      if (rep.size() != 3 || !ParseHex(rep[0], &lr.time) ||
          !ParseHex(rep[1], &lr.location.x) ||
          !ParseHex(rep[2], &lr.location.y)) {
        return error("bad report");
      }
      stream.push_back(lr);
    }
    out.report_streams.push_back(std::move(stream));
  }

  if (!(s = next("trailer")).ok()) return s;
  if (line != "end") return error("missing 'end' trailer");
  *inst = std::move(out);
  return Status::Ok();
}

Status WriteInstanceFile(const FuzzInstance& inst, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::NotFound("cannot open " + path + " for writing");
  WriteInstance(inst, os);
  os.flush();
  if (!os) return Status::DataLoss("write failed for " + path);
  return Status::Ok();
}

Status ReadInstanceFile(const std::string& path, FuzzInstance* inst) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open " + path);
  return ParseInstance(is, inst);
}

}  // namespace trajpattern
