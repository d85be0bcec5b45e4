// Answer checks made apart from the program under test. The reference
// answers come from the benchmark's own loop over QueryBox intervals and the
// items it generated and saw acknowledged — never from ArrayShard or
// FlatQuery, which share code with the leaf scan being checked.
//
// Count, min and max must match exactly. Sums are compared within a
// relative tolerance: partial aggregates merge in whatever order worker
// replies arrive, so an exact comparison of doubles (Aggregate::operator==)
// would fail at random on correct answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "olap/aggregate.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace e2e {

/// Relative tolerance on sums; a double sum of n positive terms reordered
/// drifts by at most ~n * 2^-53 of the total.
inline constexpr double kSumRelTolerance = 1e-9;

/// Brute-force count/sum/min/max of every query over every item in `sets`.
/// Sums are accumulated in long double so the reference is tighter than
/// the tolerance it is compared with.
std::vector<volap::Aggregate> bruteForce(
    const std::vector<volap::QueryBox>& queries,
    const std::vector<const volap::PointSet*>& sets);

/// Queries that partition dimension `dim` at its top hierarchy level: one
/// per top-level value, together covering every item exactly once.
std::vector<volap::QueryBox> topLevelPartition(const volap::Schema& schema,
                                               unsigned dim);

/// Collects check failures; each names the workload, the query, the
/// expected value and the actual value.
class Checker {
 public:
  explicit Checker(std::string workload) : workload_(std::move(workload)) {}

  /// `actual` must equal `expected`: count/min/max exactly, sum within
  /// kSumRelTolerance. `where` says which query and through which server.
  void expectAggregate(const std::string& where,
                       const volap::Aggregate& expected,
                       const volap::Aggregate& actual, bool partial);

  /// The counts of a partition's parts must add up to the whole.
  void expectPartition(const std::string& where,
                       const std::vector<std::uint64_t>& partCounts,
                       std::uint64_t wholeCount);

  /// Two counts taken independently must agree.
  void expectEqual(const std::string& what, std::uint64_t expected,
                   std::uint64_t actual);

  void fail(const std::string& message);

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string workload_;
  std::vector<std::string> failures_;
};

/// Feeds the checker wrong answers — count off by one, a sum off by more
/// than the tolerance, a min off by one ulp, a partition that does not add
/// up, unequal totals — and right answers with reordered sums. Returns an
/// empty string when every wrong answer is caught and no right one is
/// rejected, else what went undetected.
std::string selfTest();

}  // namespace e2e
