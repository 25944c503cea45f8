#include "testing/mining_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "baseline/brute_force.h"
#include "io/checkpoint.h"
#include "prob/rng.h"
#include "testing/reference_scorer.h"
#include "trajectory/validate.h"

namespace trajpattern {
namespace {

/// Bitwise double equality: distinguishes -0.0 from 0.0 and treats two
/// NaNs with the same payload as equal — exactly the "bit-identical"
/// contract the fast paths promise.
bool BitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string DescribeScored(const ScoredPattern& sp) {
  return sp.pattern.ToString() + " nm=" + Hex(sp.nm);
}

/// "" when the two result lists agree pattern-for-pattern and bit-for-bit.
std::string DiffTopK(const std::string& what,
                     const std::vector<ScoredPattern>& got,
                     const std::vector<ScoredPattern>& want) {
  if (got.size() != want.size()) {
    return what + ": top-k size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].pattern == want[i].pattern) ||
        !BitEq(got[i].nm, want[i].nm)) {
      return what + ": rank " + std::to_string(i) + " " +
             DescribeScored(got[i]) + " vs " + DescribeScored(want[i]);
    }
  }
  return "";
}

/// "" when `got` holds exactly the patterns of `want`, once each;
/// otherwise names one pattern that is on one side only.
std::string DiffPatternSet(const std::string& what,
                           const std::vector<Pattern>& got,
                           const std::set<Pattern>& want) {
  const std::set<Pattern> got_set(got.begin(), got.end());
  if (got_set.size() != got.size()) return what + " lists a pattern twice";
  for (const Pattern& p : want) {
    if (!got_set.contains(p)) return what + " misses " + p.ToString();
  }
  for (const Pattern& p : got_set) {
    if (!want.contains(p)) return what + " has extra " + p.ToString();
  }
  return "";
}

/// A checkpoint memo as rows, and a frontier list of its ids as
/// patterns: the reference frontier walks rows, sharing no code with the
/// miner's id walk.
std::vector<ScoredPattern> Rows(const ScoreMemo& scores) {
  std::vector<ScoredPattern> rows;
  rows.reserve(scores.size());
  for (ScoreMemo::Id id = 0; id < scores.size(); ++id) {
    rows.push_back({scores.pattern(id), scores.nm(id)});
  }
  return rows;
}

std::vector<Pattern> Patterns(const ScoreMemo& scores,
                              const std::vector<ScoreMemo::Id>& ids) {
  std::vector<Pattern> patterns;
  patterns.reserve(ids.size());
  for (const ScoreMemo::Id id : ids) patterns.push_back(scores.pattern(id));
  return patterns;
}

/// Canonical form of a report stream: ascending time, one report per
/// timestamp (the last one in arrival order wins — it is the freshest
/// retransmission of that fix).
std::vector<LocationReport> CanonicalReports(
    const std::vector<LocationReport>& raw) {
  std::vector<LocationReport> out = raw;
  std::stable_sort(out.begin(), out.end(),
                   [](const LocationReport& a, const LocationReport& b) {
                     return a.time < b.time;
                   });
  std::vector<LocationReport> dedup;
  for (const LocationReport& r : out) {
    if (!dedup.empty() && dedup.back().time == r.time) {
      dedup.back() = r;
    } else {
      dedup.push_back(r);
    }
  }
  return dedup;
}

/// Deterministic probe patterns for the kernel-identity leg: singulars,
/// repeats, wildcard-sandwiched pairs, plus the degenerate empty and
/// all-wildcard patterns the engine and the reference must score alike.
std::vector<Pattern> SamplePatterns(const FuzzInstance& inst,
                                    const std::vector<CellId>& alphabet) {
  std::vector<Pattern> out;
  out.emplace_back();                                     // empty
  out.emplace_back(std::vector<CellId>{kWildcardCell});   // all-wildcard
  out.emplace_back(
      std::vector<CellId>{kWildcardCell, kWildcardCell});
  if (alphabet.empty()) return out;
  Rng rng(inst.seed ^ 0x5bf03635u);
  auto cell = [&]() {
    return alphabet[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1))];
  };
  for (int i = 0; i < 4; ++i) out.emplace_back(cell());
  for (int i = 0; i < 4; ++i) {
    out.emplace_back(std::vector<CellId>{cell(), cell()});
  }
  const CellId c = cell();
  out.emplace_back(std::vector<CellId>{c, c, c});         // repeated cell
  out.emplace_back(std::vector<CellId>{cell(), kWildcardCell, cell()});
  out.emplace_back(
      std::vector<CellId>{cell(), kWildcardCell, kWildcardCell, cell()});
  // Wildcard-only suffix/prefix interior shapes (the miner never builds
  // them, but the engine must still score them consistently).
  out.emplace_back(std::vector<CellId>{cell(), kWildcardCell});
  out.emplace_back(std::vector<CellId>{kWildcardCell, cell()});
  // Prefix-sharing family for the batch walk, drawn after everything
  // above so the earlier samples stay put: a 2-3 cell stem with four
  // tails, a duplicate, the stem itself (a strict prefix of its tails)
  // and the stem with an interior wildcard.
  std::vector<CellId> stem = {cell(), cell()};
  if (rng.Bernoulli(0.5)) stem.push_back(cell());
  for (int i = 0; i < 4; ++i) {
    std::vector<CellId> tail = stem;
    tail.push_back(cell());
    out.emplace_back(std::move(tail));
  }
  out.push_back(out.back());
  out.emplace_back(stem);
  out.emplace_back(std::vector<CellId>{stem[0], kWildcardCell, stem[1],
                                       cell()});
  return out;
}

}  // namespace

OracleReport MiningOracle::Check(const FuzzInstance& inst) const {
  OracleReport report;
  auto fail = [&](const std::string& what) {
    if (report.divergence.empty()) {
      report.divergence = "seed " + std::to_string(inst.seed) + ": " + what;
    }
  };

  // --- Ingestion oracle: synchronizer order-independence + validator
  // output invariants.  Surviving trajectories join the mining input so
  // the scoring oracles also run over repaired data.
  TrajectoryDataset data = inst.data;
  if (!inst.report_streams.empty() && inst.sync_snapshots > 0) {
    report.ingestion_checked = true;
    const Synchronizer sync(inst.SyncOptions());
    TrajectoryDataset synced;
    for (size_t i = 0; i < inst.report_streams.size(); ++i) {
      const auto& raw = inst.report_streams[i];
      const std::string id = "stream_" + std::to_string(i);
      const Trajectory got = sync.Synchronize(id, raw);
      const Trajectory want = sync.Synchronize(id, CanonicalReports(raw));
      if (got.size() != want.size()) {
        fail("synchronizer order-dependence: " + id + " sizes " +
             std::to_string(got.size()) + " vs " + std::to_string(want.size()));
        return report;
      }
      for (size_t s = 0; s < got.size(); ++s) {
        if (!BitEq(got[s].mean.x, want[s].mean.x) ||
            !BitEq(got[s].mean.y, want[s].mean.y) ||
            !BitEq(got[s].sigma, want[s].sigma)) {
          fail("synchronizer order-dependence: " + id + " snapshot " +
               std::to_string(s) + " (" + Hex(got[s].mean.x) + "," +
               Hex(got[s].mean.y) + "," + Hex(got[s].sigma) + ") vs (" +
               Hex(want[s].mean.x) + "," + Hex(want[s].mean.y) + "," +
               Hex(want[s].sigma) + ")");
          return report;
        }
      }
      if (raw.empty() != got.empty()) {
        fail("synchronizer emptiness: " + id);
        return report;
      }
      if (!raw.empty() &&
          got.size() != static_cast<size_t>(inst.sync_snapshots)) {
        fail("synchronizer snapshot count: " + id);
        return report;
      }
      synced.Add(got);
    }
    ValidationPolicy policy;
    const TrajectoryValidator validator(policy);
    const TrajectoryDataset accepted = validator.Validate(synced);
    for (const Trajectory& t : accepted) {
      for (size_t s = 0; s < t.size(); ++s) {
        if (!std::isfinite(t[s].mean.x) || !std::isfinite(t[s].mean.y) ||
            !std::isfinite(t[s].sigma) || t[s].sigma <= 0.0) {
          fail("validator emitted unusable snapshot in '" + t.id() +
               "' index " + std::to_string(s) + ": (" + Hex(t[s].mean.x) +
               "," + Hex(t[s].mean.y) + ") sigma=" + Hex(t[s].sigma));
          return report;
        }
      }
      data.Add(t);
    }
  }

  const MiningSpace space = inst.Space();
  const MinerOptions base = inst.Options();

  // --- Reference run: serial, exact.  Its sink keeps every boundary's
  // checkpoint: oracle (h) checks the frontier across consecutive ones,
  // and oracle (g) audits the last one's memo.
  std::vector<MinerCheckpoint> ref_checkpoints;
  MinerOptions ref_opt = base;
  ref_opt.checkpoint_sink = [&](const MinerCheckpoint& cp) {
    ref_checkpoints.push_back(cp);
    return true;
  };
  NmEngine ref_engine(data, space);
  const MiningResult ref = MineTrajPatterns(ref_engine, ref_opt);
  ++report.mining_runs;

  // --- Oracle (h), frontier.  The checkpoint at boundary i + 1 carries
  // the H and Q that round i + 1's generation ran over, which the miner
  // rebuilt from the memo and ω of boundary i.
  report.frontier_checked = ref_checkpoints.size() >= 2;
  for (size_t i = 1; i < ref_checkpoints.size(); ++i) {
    const MinerCheckpoint& earlier = ref_checkpoints[i - 1];
    const MinerCheckpoint& later = ref_checkpoints[i];
    const ReferenceFrontier want =
        RebuildReferenceFrontier(Rows(earlier.scores), earlier.omega);
    const std::string where = "frontier after boundary " +
                              std::to_string(earlier.iteration) + " (omega " +
                              Hex(earlier.omega) + "): ";
    std::string diff = DiffPatternSet(
        where + "H", Patterns(later.scores, later.prev_high), want.high);
    if (diff.empty()) {
      diff = DiffPatternSet(
          where + "Q", Patterns(later.scores, later.prev_queue), want.queue);
    }
    if (!diff.empty()) {
      fail(diff);
      return report;
    }
  }

  // --- Oracle (a), kernel identity per pattern and per batch: the
  // engine's totals — one pattern and whole batches at 1 and N threads,
  // all through the shared-prefix walk — against the point-at-a-time
  // reference scorer.
  ReferenceScorer reference(data, space);
  const std::vector<CellId> alphabet = ref_engine.TouchedCells();
  {
    NmEngine engine(data, space);
    const std::vector<Pattern> samples = SamplePatterns(inst, alphabet);
    std::vector<double> nm_want(samples.size()), match_want(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      nm_want[i] = reference.NmTotal(samples[i]);
      match_want[i] = reference.MatchTotal(samples[i]);
      const double nm = engine.NmTotal(samples[i]);
      const double match = engine.MatchTotal(samples[i]);
      if (!BitEq(nm, nm_want[i])) {
        fail("NmTotal mismatch on " + samples[i].ToString() + ": " +
             Hex(nm_want[i]) + " (reference) vs " + Hex(nm) + " (engine)");
        return report;
      }
      if (!BitEq(match, match_want[i])) {
        fail("MatchTotal mismatch on " + samples[i].ToString() + ": " +
             Hex(match_want[i]) + " (reference) vs " + Hex(match) +
             " (engine)");
        return report;
      }
    }
    // Scorable samples only: the batch API is specified for patterns
    // that pass ValidateScorable.
    std::vector<Pattern> scorable;
    std::vector<double> scorable_nm, scorable_match;
    for (size_t i = 0; i < samples.size(); ++i) {
      if (!NmEngine::ValidateScorable(samples[i]).ok()) continue;
      scorable.push_back(samples[i]);
      scorable_nm.push_back(nm_want[i]);
      scorable_match.push_back(match_want[i]);
    }
    for (const int threads : {1, inst.num_threads}) {
      const std::vector<double> nm = engine.NmTotalBatch(scorable, threads);
      const std::vector<double> match =
          engine.MatchTotalBatch(scorable, threads);
      for (size_t i = 0; i < scorable.size(); ++i) {
        if (!BitEq(nm[i], scorable_nm[i])) {
          fail("NmTotalBatch(" + std::to_string(threads) +
               " threads) vs reference mismatch on " +
               scorable[i].ToString() + ": " + Hex(nm[i]) + " vs " +
               Hex(scorable_nm[i]));
          return report;
        }
        if (!BitEq(match[i], scorable_match[i])) {
          fail("MatchTotalBatch(" + std::to_string(threads) +
               " threads) vs reference mismatch on " +
               scorable[i].ToString() + ": " + Hex(match[i]) + " vs " +
               Hex(scorable_match[i]));
          return report;
        }
      }
    }
  }

  // --- Oracle (a), brute-force ground truth (enumerable spaces only).
  if (inst.max_wildcards == 0 && !alphabet.empty()) {
    size_t space_size = 0, pow = 1;
    bool overflow = false;
    for (size_t l = 1; l <= inst.max_pattern_length && !overflow; ++l) {
      if (pow > limits_.max_brute_patterns / alphabet.size()) {
        overflow = true;
        break;
      }
      pow *= alphabet.size();
      space_size += pow;
      if (space_size > limits_.max_brute_patterns) overflow = true;
    }
    if (!overflow) {
      report.brute_force_checked = true;
      NmEngine brute_engine(data, space);
      const auto brute = BruteForceTopK(
          brute_engine, inst.k, inst.max_pattern_length,
          std::max<size_t>(inst.min_length, 1));
      const std::string diff =
          DiffTopK("miner vs brute force", ref.patterns, brute);
      if (!diff.empty()) {
        fail(diff);
        return report;
      }
    }
  }

  // --- Oracle (d), thread-count determinism.
  {
    MinerOptions opt = base;
    opt.num_threads = inst.num_threads;
    NmEngine engine(data, space);
    const MiningResult threaded = MineTrajPatterns(engine, opt);
    ++report.mining_runs;
    std::string diff =
        DiffTopK("N-thread vs serial top-k", threaded.patterns, ref.patterns);
    if (diff.empty() && threaded.stats.candidates_evaluated !=
                            ref.stats.candidates_evaluated) {
      diff = "N-thread candidates_evaluated " +
             std::to_string(threaded.stats.candidates_evaluated) + " vs " +
             std::to_string(ref.stats.candidates_evaluated);
    }
    if (diff.empty() && threaded.stats.candidates_pruned !=
                            ref.stats.candidates_pruned) {
      diff = "N-thread candidates_pruned " +
             std::to_string(threaded.stats.candidates_pruned) + " vs " +
             std::to_string(ref.stats.candidates_pruned);
    }
    if (!diff.empty()) {
      fail(diff);
      return report;
    }
  }

  // --- Oracle (e), warm-order determinism: factor vectors depend only
  // on (factor id, dataset, space), so engines warmed in shuffled orders
  // and on different thread counts must score bit-identically to one
  // warmed in canonical order on one thread — and re-warming the
  // resident set must be a pure no-op that computes nothing.
  if (!alphabet.empty()) {
    report.warm_order_checked = true;
    const std::vector<Pattern> samples = SamplePatterns(inst, alphabet);
    std::vector<Pattern> scorable;
    for (const Pattern& p : samples) {
      if (NmEngine::ValidateScorable(p).ok()) scorable.push_back(p);
    }
    // Each distinct cell needs two factor vectors: its grid column's and
    // its grid row's under the rectangular model, its own column and the
    // shared all-+0.0 vector under the radial one.
    size_t vectors = alphabet.size() + 1;
    if (space.model == IndifferenceModel::kRectangular) {
      std::set<int> cols, rows;
      for (const CellId c : alphabet) {
        cols.insert(space.grid.ColumnOf(c));
        rows.insert(space.grid.RowOf(c));
      }
      vectors = cols.size() + rows.size();
    }
    NmEngine warm_ref(data, space);
    const size_t warmed = warm_ref.WarmCells(alphabet, 1);
    if (warmed != vectors) {
      fail("first warm-up computed " + std::to_string(warmed) + " of the " +
           std::to_string(vectors) + " factor vectors of " +
           std::to_string(alphabet.size()) + " distinct cells");
      return report;
    }
    NmEngine::WarmStats rewarm;
    if (warm_ref.WarmCells(alphabet, 1, &rewarm) != 0 ||
        rewarm.misses != 0 || rewarm.hits != 2 * alphabet.size()) {
      fail("re-warming the resident set was not a counted no-op: " +
           std::to_string(rewarm.hits) + " hits, " +
           std::to_string(rewarm.misses) + " misses");
      return report;
    }
    const std::vector<double> want = warm_ref.NmTotalBatch(scorable, 1);
    Rng rng(inst.seed ^ 0x77a3f2c9u);
    for (const int threads : {1, inst.num_threads}) {
      std::vector<CellId> shuffled = alphabet;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int>(i) - 1))]);
      }
      NmEngine engine(data, space);
      engine.WarmCells(shuffled, threads);
      const std::vector<double> got = engine.NmTotalBatch(scorable, threads);
      for (size_t i = 0; i < scorable.size(); ++i) {
        if (!BitEq(got[i], want[i])) {
          fail("warm-order divergence on " + scorable[i].ToString() + " (" +
               std::to_string(threads) + " threads, shuffled warm): " +
               Hex(got[i]) + " vs " + Hex(want[i]));
          return report;
        }
      }
    }
  }

  // --- Oracle (c), kill-at-iteration checkpoint/resume.
  {
    MinerCheckpoint captured;
    bool have_checkpoint = false;
    MinerOptions opt = base;
    int calls = 0;
    opt.checkpoint_sink = [&](const MinerCheckpoint& cp) {
      captured = cp;
      have_checkpoint = true;
      return ++calls < inst.kill_iteration;
    };
    NmEngine engine(data, space);
    const MiningResult aborted = MineTrajPatterns(engine, opt);
    ++report.mining_runs;
    (void)aborted;
    if (have_checkpoint) {
      // Round-trip: top-k and cumulative counters bit-identical.
      std::ostringstream os;
      Status s = WriteMinerCheckpoint(captured, os);
      if (!s.ok()) {
        fail("checkpoint write failed: " + s.ToString());
        return report;
      }
      std::istringstream is(os.str());
      MinerCheckpoint loaded;
      s = ReadMinerCheckpoint(is, &loaded);
      if (!s.ok()) {
        fail("checkpoint reload failed: " + s.ToString());
        return report;
      }
      NmEngine resume_engine(data, space);
      const MiningResult resumed =
          MineTrajPatterns(resume_engine, base, &loaded);
      ++report.mining_runs;
      std::string diff =
          DiffTopK("resume vs uninterrupted", resumed.patterns,
                   ref.patterns);
      if (diff.empty() && resumed.stats.candidates_evaluated !=
                              ref.stats.candidates_evaluated) {
        diff = "resume candidates_evaluated " +
               std::to_string(resumed.stats.candidates_evaluated) +
               " vs uninterrupted " +
               std::to_string(ref.stats.candidates_evaluated) +
               " (double-counted or lost across resume)";
      }
      if (diff.empty() &&
          resumed.stats.candidates_pruned != ref.stats.candidates_pruned) {
        diff = "resume candidates_pruned " +
               std::to_string(resumed.stats.candidates_pruned) + " vs " +
               std::to_string(ref.stats.candidates_pruned);
      }
      if (!diff.empty()) {
        fail(diff);
        return report;
      }
    }
  }

  // --- Oracle (g), memo bounds.  Every value the reference run
  // memoized must be an upper bound on the reference scorer's exact NM,
  // and a value that is not the exact score (a split bound) must lie
  // below the final ω.  That is the contract that lets a bound stand in
  // for a scan without changing the top-k, the high/low frontier, or a
  // resumed run; and since every scanned value must be bit-equal to the
  // reference, it also checks every score the run memoized.
  if (!ref_checkpoints.empty()) {
    report.memo_bounds_checked = true;
    const MinerCheckpoint& ref_final = ref_checkpoints.back();
    for (const ScoredPattern& sp : Rows(ref_final.scores)) {
      const double exact = reference.NmTotal(sp.pattern);
      if (!(exact <= sp.nm)) {
        fail("memo value below the exact NM on " + sp.pattern.ToString() +
             ": memo=" + Hex(sp.nm) + " exact=" + Hex(exact));
        return report;
      }
      if (!BitEq(exact, sp.nm) && !(sp.nm < ref_final.omega)) {
        fail("memoized bound not below the final omega on " +
             sp.pattern.ToString() + ": memo=" + Hex(sp.nm) +
             " exact=" + Hex(exact) + " omega=" + Hex(ref_final.omega));
        return report;
      }
    }
  }

  return report;
}

}  // namespace trajpattern
