#include "core/score_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/pattern.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

Pattern RandomPattern(Rng* rng, int max_len, int alphabet) {
  std::vector<CellId> cells(static_cast<size_t>(rng->UniformInt(1, max_len)));
  for (CellId& c : cells) c = rng->UniformInt(0, alphabet - 1);
  return Pattern(std::move(cells));
}

TEST(ScoreMemoTest, SpanAndPatternLookupsAgree) {
  ScoreMemo memo;
  const Pattern p(std::vector<CellId>{4, 8, 15, 16});
  ASSERT_TRUE(memo.emplace(p.cells(), -1.5));
  // A sub-span view of a longer buffer finds the same entry as the
  // pattern itself.
  const std::vector<CellId> buffer{23, 4, 8, 15, 16, 42};
  const std::span<const CellId> view = std::span(buffer).subspan(1, 4);
  const double* by_view = memo.find(view);
  const double* by_pattern = memo.find(p.cells());
  ASSERT_NE(by_view, nullptr);
  EXPECT_EQ(by_view, by_pattern);
  EXPECT_EQ(*by_view, -1.5);
  EXPECT_EQ(memo.FindId(view), 0u);
  EXPECT_EQ(memo.pattern(0), p);
  // Prefixes, suffixes and extensions are different patterns.
  EXPECT_FALSE(memo.contains(std::span(buffer).subspan(1, 3)));
  EXPECT_FALSE(memo.contains(std::span(buffer).subspan(2, 3)));
  EXPECT_FALSE(memo.contains(std::span(buffer).subspan(1, 5)));
  EXPECT_EQ(memo.FindId(std::span(buffer).first(2)), ScoreMemo::kNoId);
}

TEST(ScoreMemoTest, DuplicateEmplaceKeepsFirstValue) {
  ScoreMemo memo;
  const Pattern p(std::vector<CellId>{1, 2});
  EXPECT_TRUE(memo.emplace(p.cells(), -3.0));
  EXPECT_FALSE(memo.emplace(p.cells(), -1.0));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(*memo.find(p.cells()), -3.0);
}

TEST(ScoreMemoTest, ManyInsertsThroughRehashesStayFindableInInsertionOrder) {
  constexpr int kCount = 200000;
  ScoreMemo memo;
  Rng rng(2024);
  std::vector<Pattern> inserted;
  inserted.reserve(kCount);
  while (static_cast<int>(inserted.size()) < kCount) {
    // Reserve now and then, as the miner does per batch; growing the
    // index there must not disturb ids either.
    if (inserted.size() % 5000 == 0) {
      memo.reserve(memo.size() + 3000, memo.num_cells() + 9000);
    }
    Pattern p = RandomPattern(&rng, 6, 97);
    const double nm = -static_cast<double>(inserted.size());
    if (memo.emplace(p.cells(), nm)) inserted.push_back(std::move(p));
  }
  ASSERT_EQ(memo.size(), inserted.size());
  for (size_t id = 0; id < inserted.size(); ++id) {
    const auto sid = static_cast<ScoreMemo::Id>(id);
    ASSERT_EQ(memo.FindId(inserted[id].cells()), sid) << id;
    ASSERT_EQ(memo.pattern(sid), inserted[id]);
    ASSERT_EQ(memo.nm(sid), -static_cast<double>(id));
  }
  // Heap bytes cover at least the cells, values, hashes and index.
  size_t cells = 0;
  for (const Pattern& p : inserted) cells += p.length();
  EXPECT_EQ(memo.num_cells(), cells);
  EXPECT_GE(memo.bytes(), cells * sizeof(CellId) + memo.size() * 28);
}

TEST(ScoreMemoTest, WildcardCellsAreOrdinaryCells) {
  ScoreMemo memo;
  const Pattern starred(std::vector<CellId>{3, kWildcardCell, 5});
  const Pattern plain(std::vector<CellId>{3, 5});
  const Pattern other(std::vector<CellId>{3, kWildcardCell, 6});
  ASSERT_TRUE(memo.emplace(starred.cells(), -2.0));
  ASSERT_TRUE(memo.emplace(plain.cells(), -1.0));
  ASSERT_TRUE(memo.emplace(other.cells(), -4.0));
  EXPECT_EQ(*memo.find(starred.cells()), -2.0);
  EXPECT_EQ(*memo.find(plain.cells()), -1.0);
  EXPECT_EQ(memo.pattern(0), starred);
  // '*' (-2) sorts before every grid cell, as in Pattern's operator<.
  std::vector<ScoreMemo::Id> ids{0, 1, 2};
  std::sort(ids.begin(), ids.end(), [&](ScoreMemo::Id a, ScoreMemo::Id b) {
    return memo.Less(a, b);
  });
  const std::vector<ScoreMemo::Id> expected{0, 2, 1};
  EXPECT_EQ(ids, expected);
  EXPECT_FALSE(memo.contains(Pattern(kWildcardCell).cells()));
}

}  // namespace
}  // namespace trajpattern
