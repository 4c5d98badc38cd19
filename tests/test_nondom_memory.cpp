#include "moo/nondom_memory.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace tsmo {
namespace {

Objectives obj(double d, int v, double t) { return Objectives{d, v, t}; }

TEST(NondomMemory, StoresNonDominated) {
  NondomMemory<int> m(10);
  EXPECT_TRUE(m.try_add(obj(1, 2, 3), 0));
  EXPECT_TRUE(m.try_add(obj(3, 2, 1), 1));
  EXPECT_EQ(m.size(), 2u);
}

TEST(NondomMemory, RejectsDominatedAndDuplicates) {
  NondomMemory<int> m(10);
  m.try_add(obj(1, 1, 1), 0);
  EXPECT_FALSE(m.try_add(obj(2, 1, 1), 1));
  EXPECT_FALSE(m.try_add(obj(1, 1, 1), 2));
  EXPECT_EQ(m.size(), 1u);
}

TEST(NondomMemory, EvictsDominatedMembers) {
  NondomMemory<int> m(10);
  m.try_add(obj(5, 5, 5), 0);
  m.try_add(obj(6, 4, 5), 1);
  EXPECT_TRUE(m.try_add(obj(1, 1, 1), 2));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.entries()[0].value, 2);
}

TEST(NondomMemory, FifoAgingOverCapacity) {
  NondomMemory<int> m(2);
  // Mutually non-dominated trio.
  m.try_add(obj(1, 1, 9), 0);
  m.try_add(obj(5, 1, 5), 1);
  m.try_add(obj(9, 1, 1), 2);
  EXPECT_EQ(m.size(), 2u);
  // Oldest (value 0) was dropped.
  std::set<int> values;
  for (const auto& e : m.entries()) values.insert(e.value);
  EXPECT_EQ(values, (std::set<int>{1, 2}));
}

TEST(NondomMemory, TakeRandomConsumesEntry) {
  Rng rng(11);
  NondomMemory<int> m(4);
  m.try_add(obj(1, 1, 9), 10);
  m.try_add(obj(9, 1, 1), 20);
  std::set<int> taken;
  taken.insert(m.take_random(rng).value);
  EXPECT_EQ(m.size(), 1u);
  taken.insert(m.take_random(rng).value);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(taken, (std::set<int>{10, 20}));
}

TEST(NondomMemory, ClearEmpties) {
  NondomMemory<int> m(4);
  m.try_add(obj(1, 1, 1), 0);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.try_add(obj(1, 1, 1), 1));
}

TEST(NondomMemory, InvariantMutuallyNonDominated) {
  Rng rng(13);
  NondomMemory<int> m(8);
  for (int i = 0; i < 500; ++i) {
    m.try_add(obj(rng.uniform(0, 50),
                  static_cast<int>(rng.uniform_int(0, 6)),
                  rng.uniform(0, 50)),
              i);
    ASSERT_LE(m.size(), 8u);
  }
  for (const auto& x : m.entries()) {
    for (const auto& y : m.entries()) {
      if (&x == &y) continue;
      EXPECT_FALSE(dominates(x.obj, y.obj));
    }
  }
}

}  // namespace
}  // namespace tsmo
