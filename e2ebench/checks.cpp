#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e {

using volap::Aggregate;
using volap::PointSet;
using volap::QueryBox;

namespace {

struct Reference {
  std::uint64_t count = 0;
  long double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

std::string show(const Aggregate& a) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "count=%llu sum=%.17g min=%.17g max=%.17g",
                static_cast<unsigned long long>(a.count), a.sum, a.min,
                a.max);
  return buf;
}

}  // namespace

std::vector<Aggregate> bruteForce(const std::vector<QueryBox>& queries,
                                  const std::vector<const PointSet*>& sets) {
  std::vector<Reference> ref(queries.size());
  for (const PointSet* set : sets) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const volap::PointRef p = set->at(i);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const QueryBox& box = queries[q];
        bool inside = true;
        for (unsigned j = 0; j < box.dims() && inside; ++j)
          inside = box.dim(j).lo <= p.coords[j] && p.coords[j] <= box.dim(j).hi;
        if (!inside) continue;
        Reference& r = ref[q];
        ++r.count;
        r.sum += p.measure;
        if (p.measure < r.min) r.min = p.measure;
        if (p.measure > r.max) r.max = p.measure;
      }
    }
  }
  std::vector<Aggregate> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q].count = ref[q].count;
    out[q].sum = static_cast<double>(ref[q].sum);
    out[q].min = ref[q].min;
    out[q].max = ref[q].max;
  }
  return out;
}

std::vector<QueryBox> topLevelPartition(const volap::Schema& schema,
                                        unsigned dim) {
  std::vector<QueryBox> parts;
  const std::uint64_t fanout = schema.dim(dim).level(1).fanout;
  for (std::uint64_t v = 0; v < fanout; ++v) {
    QueryBox q(schema);
    const std::uint64_t path[] = {v};
    q.constrain(schema, dim, path);
    parts.push_back(q);
  }
  return parts;
}

void Checker::expectAggregate(const std::string& where,
                              const Aggregate& expected,
                              const Aggregate& actual, bool partial) {
  bool good = !partial && actual.count == expected.count;
  if (good && expected.count > 0) {
    const double scale = std::max(std::fabs(expected.sum), 1.0);
    good = std::fabs(actual.sum - expected.sum) <= kSumRelTolerance * scale &&
           actual.min == expected.min && actual.max == expected.max;
  }
  if (!good)
    fail(where + ": expected " + show(expected) + ", actual " + show(actual) +
         (partial ? " (partial reply)" : ""));
}

void Checker::expectPartition(const std::string& where,
                              const std::vector<std::uint64_t>& partCounts,
                              std::uint64_t wholeCount) {
  std::uint64_t sum = 0;
  for (auto c : partCounts) sum += c;
  if (sum != wholeCount)
    fail(where + ": expected parts to sum to " + std::to_string(wholeCount) +
         ", actual " + std::to_string(sum));
}

void Checker::expectEqual(const std::string& what, std::uint64_t expected,
                          std::uint64_t actual) {
  if (expected != actual)
    fail(what + ": expected " + std::to_string(expected) + ", actual " +
         std::to_string(actual));
}

void Checker::fail(const std::string& message) {
  failures_.push_back("[" + workload_ + "] " + message);
}

std::string selfTest() {
  const volap::Schema schema = volap::Schema::tpcds();
  PointSet items(schema.dims());
  std::vector<std::uint64_t> coords(schema.dims());
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (unsigned j = 0; j < schema.dims(); ++j)
      coords[j] = (i * (2 * j + 7) * 2654435761u) % schema.dim(j).extent();
    items.push({coords, 1.0 + static_cast<double>(i % 97) * 0.37});
  }
  std::vector<QueryBox> queries = topLevelPartition(schema, 0);
  queries.push_back(QueryBox(schema));
  const std::vector<Aggregate> truth = bruteForce(queries, {&items});
  const Aggregate& all = truth.back();
  if (all.count != items.size()) return "oracle miscounts the ALL query";

  // A right answer whose sum was accumulated in another order.
  Aggregate reordered;
  for (std::size_t i = items.size(); i-- > 0;)
    reordered.add(items.at(i).measure);

  std::string missed;
  auto expectCaught = [&](const char* name, const Aggregate& actual,
                          bool partial) {
    Checker c("self-test");
    c.expectAggregate(name, all, actual, partial);
    if (c.ok()) missed += std::string(name) + " not caught; ";
  };
  Aggregate wrong = all;
  wrong.count += 1;
  expectCaught("count+1", wrong, false);
  wrong = all;
  wrong.sum *= 1.0 + 10 * kSumRelTolerance;
  expectCaught("sum beyond tolerance", wrong, false);
  wrong = all;
  wrong.min = std::nextafter(all.min, 0.0);
  expectCaught("min off by one ulp", wrong, false);
  wrong = all;
  wrong.max = std::nextafter(all.max, 1e300);
  expectCaught("max off by one ulp", wrong, false);
  expectCaught("partial reply", all, true);

  std::vector<std::uint64_t> parts;
  for (std::size_t q = 0; q + 1 < truth.size(); ++q)
    parts.push_back(truth[q].count);
  {
    Checker c("self-test");
    c.expectPartition("partition", parts, all.count);
    if (!c.ok()) missed += "a right partition rejected; ";
    parts[0] += 1;
    Checker bad("self-test");
    bad.expectPartition("partition+1", parts, all.count);
    if (bad.ok()) missed += "partition that does not add up not caught; ";
  }
  {
    Checker c("self-test");
    c.expectAggregate("reordered sum", all, reordered, false);
    if (!c.ok()) missed += "a reordered (right) sum rejected; ";
    Checker bad("self-test");
    bad.expectEqual("totals", all.count, all.count + 1);
    if (bad.ok()) missed += "unequal totals not caught; ";
  }
  return missed;
}

}  // namespace e2e
