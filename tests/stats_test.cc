#include <gtest/gtest.h>

#include <thread>

#include "stats/table.h"
#include "stats/timer.h"

namespace trajpattern {
namespace {

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.Millis(), 15.0);
  t.Reset();
  EXPECT_LT(t.Millis(), 15.0);
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| alpha "), std::string::npos);
  EXPECT_NE(s.find("| 12345 "), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("|---"), std::string::npos);
  // All lines share the same width.
  size_t first_len = s.find('\n');
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Num(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace trajpattern
