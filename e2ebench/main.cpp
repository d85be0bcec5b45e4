// End-to-end benchmark for VOLAP. One command runs one named workload
// against an in-process VolapCluster, checks the answers against a
// brute-force oracle, and prints its metrics; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//   volap_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   volap_e2e --self-test
//
// Workloads (README.md says why each was chosen):
//   bulk_ingest     10k-item Client::bulkLoad batches, one in flight, into
//                   an empty R=2 cluster, then an empty R=1 cluster; rounds.
//   query_only      closed loop of aggregate queries from every non-empty
//                   coverage band, one windowed session per server, against
//                   a preloaded database; no inserts.
//   mixed_70_30     closed loop of 70% point inserts / 30% queries over the
//                   same preloaded database, one windowed session per server.
//   crash_recovery  crash a worker of a preloaded cluster, wait until the
//                   manager fences its shards, and probe until a
//                   full-coverage answer is exact; R=2 (promotion) then R=1
//                   (cold replay), repeated while time remains.
//
// Every workload prints the same end-to-end metrics: setup_s, peak_rss_mb,
// primary_ms and secondary_ms, whose meaning per workload is in README.md.
// --trace 1 turns on trace sampling, scrapes kStats around the timed phase
// and prints the per-layer metrics instead; the benchmark's own spans are
// written under the build directory.
//
// The benchmark measures the program from outside: it uses the public API
// of volap/volap.hpp, cluster/client.hpp, tree/shard.hpp, keeper/keeper.hpp
// and the kStats plane, and changes nothing in the program.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checks.hpp"
#include "cluster/client.hpp"
#include "harness.hpp"
#include "keeper/keeper.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "tree/shard.hpp"
#include "volap/volap.hpp"

namespace {

using namespace volap;
using namespace std::chrono_literals;
using e2e::Result;

/// Taken during static initialization, before main: set-up time is
/// measured from here.
const std::uint64_t kProcessStart = nowNanos();

// ---- sizes ------------------------------------------------------------------

constexpr std::size_t kBatchItems = 10'000;       // bulk batch size
constexpr std::size_t kBulkPassItems = 200'000;   // bulk stream per pass
constexpr unsigned kBulkMinRounds = 3;
/// query_only / mixed DB. Sized so that the cluster's data stays within the
/// per-core L2 caches: the shared last-level cache of the host this runs on
/// is contended by other tenants, and a 200k-item database spilled into it,
/// which moved the query p50 of one seed between 17 and 32 ms from run to
/// run (README, "Database size").
constexpr std::size_t kPreloadItems = 20'000;
constexpr std::size_t kQueriesPerBand = 400;      // query set: 3 bands
/// The medium band (33-66% coverage) stays empty on this schema: no
/// single top-level value covers a third of the skewed data, so the
/// generator is given a bounded number of attempts instead of its default.
constexpr std::size_t kBandAttempts = 3'000;
constexpr std::size_t kCheckQueries = 24;         // random oracle queries
/// Requests each session keeps in flight, in every windowed workload: the
/// shape of the repo's paper stream (bench/fig8_workload_mix.cpp, one
/// session per server, m = 2, each 128 deep).
constexpr unsigned kWindow = 128;
constexpr unsigned kMixedInsertPct = 70;
constexpr std::size_t kCrashPreloadItems = 60'000;
constexpr std::uint64_t kLayoutSeed = 20160101;  // see generateDatabase
constexpr WorkerId kVictim = 1;
/// Larger than any database here.
constexpr std::uint64_t kNoSplitItems = 1'000'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfTest = false;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.selfTest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return a.selfTest || !a.workload.empty();
}

// ---- shared context ---------------------------------------------------------

struct Context {
  Args args;
  Schema schema = Schema::tpcds();
  e2e::Spans spans;
  Result result;
  e2e::Checker checker;
  std::uint64_t setupEndNanos = 0;
  std::uint64_t setupWaitNanos = 0;

  explicit Context(Args a) : args(std::move(a)), checker(args.workload) {}

  void endSetup() {
    if (setupEndNanos == 0) setupEndNanos = nowNanos();
  }
  std::uint64_t deadlineAfter(std::uint64_t start) const {
    return start + static_cast<std::uint64_t>(args.seconds * 1e9);
  }
  /// Wait for a state the program reaches on one of its timers (chain
  /// building, checkpoints, box publication). A wait that does not end is
  /// a fault of the program: the run's answers cannot be trusted. Waits
  /// before the timed phase are left out of setup_s: they last whole timer
  /// periods, set by configuration, and would make set-up time jump by a
  /// period from run to run, while set-up *work* is what setup_s guards.
  template <typename Pred>
  void await(Pred pred, std::chrono::milliseconds timeout, const char* what) {
    const std::uint64_t t0 = nowNanos();
    if (!e2e::waitUntil(pred, timeout))
      checker.fail(std::string("timed out waiting for ") + what);
    if (setupEndNanos == 0) setupWaitNanos += nowNanos() - t0;
  }
  void pause(std::uint64_t nanos) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    if (setupEndNanos == 0) setupWaitNanos += nanos;
  }
  double setupSeconds() const {
    return static_cast<double>(setupEndNanos - kProcessStart - setupWaitNanos) / 1e9;
  }
};

/// The shipped defaults (2 servers, 4 workers, durability on) with tracing
/// off in timed runs and no split while measuring: splits over-count with
/// replica reads (README, "Excluded"). The balancer splits for capacity
/// (maxShardItems) and also to even out worker loads, which skewed data
/// triggers at once, so balancing is paused. Chain building and crash
/// recovery run regardless.
ClusterOptions shippedOptions(const Context& ctx, unsigned replication) {
  ClusterOptions o;
  o.traceSampleEveryN = ctx.args.trace ? 32 : 0;
  o.manager.replicationFactor = replication;
  o.manager.maxShardItems = kNoSplitItems;
  o.manager.enabled = false;
  return o;
}

std::vector<PointSet> batchesOf(const PointSet& items, std::size_t size) {
  std::vector<PointSet> out;
  for (std::size_t at = 0; at < items.size(); at += size) {
    PointSet b(items.dims());
    b.reserve(std::min(size, items.size() - at));
    for (std::size_t i = at; i < std::min(items.size(), at + size); ++i)
      b.push(items.at(i));
    out.push_back(std::move(b));
  }
  return out;
}

PointSet prefixOf(const PointSet& items, std::size_t n) {
  PointSet out(items.dims());
  out.reserve(n);
  for (std::size_t i = 0; i < n && i < items.size(); ++i) out.push(items.at(i));
  return out;
}

/// Reads the system image through its own keeper session.
class ImageReader {
 public:
  explicit ImageReader(VolapCluster& cluster)
      : zk_(cluster.fabric(), "e2e-image-" + std::to_string(++seq_)) {}

  std::vector<ShardInfo> shards() {
    std::vector<ShardInfo> out;
    const auto kids = zk_.children(shardsPath());
    if (!kids) return out;
    for (const auto& name : *kids) {
      const auto got = zk_.get(shardsPath() + "/" + name);
      if (!got) return {};
      ByteReader r(got->data);
      out.push_back(ShardInfo::deserialize(r));
    }
    return out;
  }

  /// Every shard has a live primary and at least one live chain replica.
  bool chained(std::size_t expectShards, WorkerId dead = kNoWorker) {
    const auto all = shards();
    if (all.size() < expectShards) return false;
    for (const auto& s : all) {
      if (s.worker == dead || s.worker == kNoWorker) return false;
      bool live = false;
      for (WorkerId w : s.replicas) live |= w != dead && w != kNoWorker;
      if (!live) return false;
    }
    return true;
  }

 private:
  static inline std::atomic<unsigned> seq_{0};
  KeeperClient zk_;
};

std::size_t initialShards(const ClusterOptions& o) {
  return static_cast<std::size_t>(o.workers) * o.initialShardsPerWorker;
}

/// Load `items` through one session in kBatchItems batches and return the
/// number of items the acks report. A batch acknowledged short fails the
/// run, and the sum of the acks is what the totals check holds the cluster
/// to.
std::uint64_t preload(Context& ctx, VolapCluster& cluster, const PointSet& items) {
  e2e::SpanScope span(ctx.spans, "setup.preload");
  auto client = cluster.makeClient("e2e-preload", 0);
  const auto batches = batchesOf(items, kBatchItems);
  std::uint64_t ackedTotal = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    e2e::SpanScope call(ctx.spans, "client.bulkLoad", span.id());
    const std::uint64_t acked = client->bulkLoad(batches[i]);
    ackedTotal += acked;
    ctx.checker.expectEqual("preload batch " + std::to_string(i) +
                                ": items Client::bulkLoad acknowledged",
                            batches[i].size(), acked);
  }
  return ackedTotal;
}

/// After a phase: the manager is idle and both servers' routing boxes cover
/// every acknowledged item. Workers publish shard boxes on their stats
/// cadence and servers learn them by keeper watch, so two cadences are
/// waited out before queries through the other server can be exact.
void settle(Context& ctx, VolapCluster& cluster,
            std::uint64_t statsIntervalNanos) {
  e2e::SpanScope span(ctx.spans, "settle");
  ctx.await([&] { return cluster.manager().opsInFlight() == 0; }, 10s,
            "manager opsInFlight() == 0");
  ctx.pause(2 * statsIntervalNanos + 200'000'000);
}

/// The answer checks: each query of the fixed set through a session on each
/// server against the brute-force oracle over the items in `acked`;
/// top-level partitions of two dimensions must add up to the full-coverage
/// count; and VolapCluster::totalItems(), the full-coverage count, the
/// oracle's count and `ackedCount` — the items the program's acks
/// confirmed — must be equal.
void checkAnswers(Context& ctx, VolapCluster& cluster, const std::string& label,
                  const std::vector<const PointSet*>& acked,
                  std::uint64_t ackedCount,
                  const std::vector<QueryBox>& checkSet) {
  e2e::SpanScope span(ctx.spans, "check." + label);

  std::vector<QueryBox> queries{QueryBox(ctx.schema)};
  const unsigned partitionDims[] = {0, 3};  // Store country, Date year
  std::vector<std::pair<std::size_t, std::size_t>> partRanges;
  for (unsigned d : partitionDims) {
    const auto parts = e2e::topLevelPartition(ctx.schema, d);
    partRanges.emplace_back(queries.size(), queries.size() + parts.size());
    queries.insert(queries.end(), parts.begin(), parts.end());
  }
  queries.insert(queries.end(), checkSet.begin(), checkSet.end());
  const std::vector<Aggregate> truth = e2e::bruteForce(queries, acked);

  const Manager& m = cluster.manager();
  ctx.result.note("%s: manager splits=%" PRIu64 " migrations=%" PRIu64
                  " promotions=%" PRIu64 " recoveries=%" PRIu64
                  " chain_repairs=%" PRIu64,
                  label.c_str(), m.splitsDone(), m.migrationsDone(),
                  m.promotionsDone(), m.recoveriesDone(), m.chainRepairsDone());
  std::string loads;
  for (auto n : cluster.workerLoads()) loads.append(" ").append(std::to_string(n));
  ctx.result.note("%s: items per worker:%s", label.c_str(), loads.c_str());
  ctx.checker.expectEqual(label + ": oracle ALL count vs acknowledged items",
                          ackedCount, truth[0].count);
  ctx.checker.expectEqual(label + ": VolapCluster::totalItems() vs acknowledged",
                          ackedCount, cluster.totalItems());
  for (unsigned s = 0; s < cluster.serverCount(); ++s) {
    auto client = cluster.makeClient("e2e-check-" + label + "-" +
                                         std::to_string(s),
                                     static_cast<int>(s));
    const std::string via = " via server/" + std::to_string(s);
    std::vector<std::uint64_t> counts(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      e2e::SpanScope call(ctx.spans, "client.query", span.id());
      const QueryReply r = client->query(queries[i]);
      counts[i] = r.agg.count;
      ctx.checker.expectAggregate(
          label + ": " + queries[i].describe(ctx.schema) + via, truth[i],
          r.agg, r.partial);
    }
    ctx.checker.expectEqual(label + ": full-coverage count" + via +
                                " vs acknowledged",
                            ackedCount, counts[0]);
    for (const auto& [from, to] : partRanges)
      ctx.checker.expectPartition(
          label + ": top-level partition of " +
              queries[from].describe(ctx.schema) + ".." + via,
          std::vector<std::uint64_t>(counts.begin() + from,
                                     counts.begin() + to),
          counts[0]);
  }
}

// ---- inputs -----------------------------------------------------------------

/// Seeds of the independent input streams, all derived from --seed.
struct Seeds {
  std::uint64_t preload, stream, queries, checks, mix;
  explicit Seeds(std::uint64_t s)
      : preload(s * 0x9e3779b97f4a7c15ull + 1),
        stream(s * 0x9e3779b97f4a7c15ull + 2),
        queries(s * 0x9e3779b97f4a7c15ull + 3),
        checks(s * 0x9e3779b97f4a7c15ull + 4),
        mix(s * 0x9e3779b97f4a7c15ull + 5) {}
};

/// Up to kQueriesPerBand queries per coverage band, binned by their true
/// coverage of the database they run on (QueryGenerator::generateBands).
/// `n` items for an empty cluster: the first kBatchItems from a fixed seed,
/// the rest from `seed`. With balancing paused, the routing of an empty
/// cluster's first items decides for good how the key space splits over the
/// shards and workers, and a different split per seed moved bulk batch
/// latency by 1.7x (one worker held 27 items, another 90,525 of 200,000).
/// A fixed first batch gives every run the same split; the seed still draws
/// the rest of the data.
PointSet generateDatabase(const Schema& schema, std::uint64_t seed,
                          std::size_t n) {
  PointSet out = DataGenerator(schema, kLayoutSeed).generate(kBatchItems);
  DataGenerator gen(schema, seed);
  for (std::size_t i = kBatchItems; i < n; ++i) out.push(gen.next());
  return out;
}

struct QuerySet {
  std::vector<std::vector<QueryBox>> bands;  // indexed by CoverageBand
  std::vector<unsigned> nonEmpty;

  /// A band uniformly among the non-empty ones, then a query in it, so the
  /// load's band mix does not depend on how many queries of each band the
  /// generator found. Returns the band.
  unsigned pick(Rng& rng, const QueryBox*& q) const {
    const unsigned b = nonEmpty[rng.below(nonEmpty.size())];
    q = &bands[b][rng.below(bands[b].size())];
    return b;
  }
  std::vector<QueryBox> all() const {
    std::vector<QueryBox> out;
    for (const auto& b : bands) out.insert(out.end(), b.begin(), b.end());
    return out;
  }
};

QuerySet makeQuerySet(const Schema& schema, const PointSet& db,
                      std::uint64_t seed) {
  QueryGenerator gen(schema, seed);
  QuerySet qs;
  for (auto& band : gen.generateBands(db, kQueriesPerBand, kBandAttempts)) {
    qs.bands.emplace_back();
    for (auto& bq : band) qs.bands.back().push_back(std::move(bq.box));
    if (!qs.bands.back().empty())
      qs.nonEmpty.push_back(static_cast<unsigned>(qs.bands.size() - 1));
  }
  return qs;
}

std::vector<QueryBox> makeCheckSet(const Schema& schema, const PointSet& db,
                                   std::uint64_t seed) {
  QueryGenerator gen(schema, seed);
  std::vector<QueryBox> out;
  for (std::size_t i = 0; i < kCheckQueries; ++i) out.push_back(gen.random(db));
  return out;
}

// ---- per-layer metrics --------------------------------------------------------

/// Numbers the per-layer list needs besides the two kStats scrapes.
struct LayerInputs {
  double ops = 0;            // end-to-end operations in the phase
  double items = 0;          // items acknowledged in the phase
  double clientQueries = 0;  // queries answered to the benchmark's clients
  double shardsSearched = 0;
  /// Shards the phase's queries asked for; when 0, shardsSearched (every
  /// query answered by the end of the phase).
  double shardsRequested = 0;
  double clientRetries = 0;
  double netMessages = 0;    // Fabric::sentCount() delta
  double treeBulkNsPerItem = 0;
  double treeQueryUs = 0;
  double failoverRehostMs = 0, failoverPublishMs = 0;
  double replayRehostMs = 0, replayPublishMs = 0;
};

/// crash_recovery keeps the kStats scrapes around its first failover here.
struct RecoveryLayers : LayerInputs {
  e2e::Scrape before, after;
};

void emitLayers(Result& r, const e2e::Scrape& a, const e2e::Scrape& b,
                const LayerInputs& in) {
  auto delta = [&](const std::string& n) { return b.value(n) - a.value(n); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto hist = [&](const std::string& n) {
    const HistogramStats h0 = a.hist(n), h1 = b.hist(n);
    const double count = static_cast<double>(h1.count - h0.count);
    r.layer(n + ".mean", ratio(static_cast<double>(h1.sum - h0.sum), count),
            "ns");
    // Histograms cannot be subtracted past their sums: the p99 is the
    // node's lifetime figure, shown only when the phase recorded samples.
    r.layer(n + ".p99", count > 0 ? static_cast<double>(h1.p99) : 0.0, "ns");
    r.layer(n + ".count", count, "count");
  };
  r.layer("client.shards_searched_per_query",
          ratio(in.shardsSearched, in.clientQueries), "count");
  r.layer("client.retries", in.clientRetries, "count");
  r.layer("server.worker_retries", delta("server.worker_retries"), "count");
  r.layer("server.coalesce.items_per_batch",
          ratio(delta("server.coalesce.items"),
                delta("server.coalesce.batches")),
          "count");
  const double hits = delta("server.snapshot_hits");
  r.layer("server.snapshot_hit_ratio",
          ratio(hits, hits + delta("server.snapshot_misses")), "ratio");
  r.layer("worker.records_per_group_commit",
          ratio(delta("worker.group_commit_records"),
                delta("worker.group_commit_groups")),
          "count");
  for (const char* n :
       {"trace.ingest.route_ns", "trace.ingest.lane_dwell_ns",
        "trace.ingest.wal_ns", "trace.ingest.apply_ns", "trace.ingest.repl_ns",
        "trace.ingest.total_ns", "ingest.freshness_lag_ns",
        "trace.query.scan_ns", "trace.query.total_ns"})
    hist(n);
  // Coalesced batches carry one trace rider, so the other members' traces
  // stop at the lane: completeness = whole traces per lane-dwell sample.
  r.layer("trace.ingest.completeness",
          ratio(static_cast<double>(b.hist("trace.ingest.total_ns").count -
                                    a.hist("trace.ingest.total_ns").count),
                static_cast<double>(
                    b.hist("trace.ingest.lane_dwell_ns").count -
                    a.hist("trace.ingest.lane_dwell_ns").count)),
          "ratio");
  r.layer("server.replica_read_share",
          ratio(delta("server.replica_reads"),
                in.shardsRequested > 0 ? in.shardsRequested : in.shardsSearched),
          "ratio");
  // Replica reads the replica answered itself; the rest bounced back to
  // the primary as stale (an extra round trip each).
  r.layer("repl.replica_read_served_share",
          ratio(delta("repl.reads"), delta("server.replica_reads")), "ratio");
  for (const char* n : {"worker.query_scan_ns", "worker.wal_append_ns",
                        "worker.batch_apply_ns", "repl.lag_ns"})
    hist(n);
  r.layer("worker.checkpoints", delta("worker.checkpoints"), "count");
  r.layer("repl.appends_per_item",
          ratio(delta("repl.appends_forwarded"), in.items), "ratio");
  r.layer("tree.bulk_insert_ns_per_item", in.treeBulkNsPerItem, "ns");
  r.layer("tree.query_us", in.treeQueryUs, "us");
  r.layer("net.messages_per_op", ratio(in.netMessages, in.ops), "count");
  r.layer("recovery.failover.rehost_ms", in.failoverRehostMs, "ms");
  r.layer("recovery.failover.publish_ms", in.failoverPublishMs, "ms");
  r.layer("recovery.replay.rehost_ms", in.replayRehostMs, "ms");
  r.layer("recovery.replay.publish_ms", in.replayPublishMs, "ms");
}

/// tree.bulk_insert_ns_per_item and tree.query_us: the Hilbert PDC shard on
/// its own, built with Shard::bulkInsert from `items` in kBatchItems batches
/// and queried once with every query of `queries`.
void timeStandaloneTree(Context& ctx, const PointSet& items,
                        const std::vector<QueryBox>& queries, LayerInputs& in) {
  e2e::SpanScope span(ctx.spans, "tree.standalone");
  auto shard = makeShard(ShardKind::kHilbertPdcMds, ctx.schema);
  const auto batches = batchesOf(items, kBatchItems);
  const std::uint64_t t0 = nowNanos();
  for (const PointSet& b : batches) shard->bulkInsert(b);
  const std::uint64_t t1 = nowNanos();
  std::uint64_t sink = 0;
  for (const QueryBox& q : queries) sink += shard->query(q).count;
  const std::uint64_t t2 = nowNanos();
  if (sink == ~std::uint64_t{0}) std::fputs("", stderr);  // keep the loop
  in.treeBulkNsPerItem = static_cast<double>(t1 - t0) /
                         static_cast<double>(std::max<std::size_t>(1, items.size()));
  in.treeQueryUs = static_cast<double>(t2 - t1) / 1e3 /
                   static_cast<double>(std::max<std::size_t>(1, queries.size()));
}

std::vector<std::string> liveEndpoints(VolapCluster& cluster,
                                       WorkerId dead = kNoWorker) {
  std::vector<std::string> out;
  for (const auto& ep : cluster.statsEndpoints())
    if (dead == kNoWorker || ep != workerEndpoint(dead)) out.push_back(ep);
  return out;
}

// ---- bulk_ingest --------------------------------------------------------------

/// One bulk_ingest pass: a fresh empty cluster takes the whole
/// kBulkPassItems stream, one batch in flight. Passes are whole, so every
/// pass times the same batch positions against the same database sizes,
/// and a fresh cluster per pass bounds the database (and memory) at the
/// stream size. Only one cluster exists at a time. The chain wait is not
/// timed.
struct PassResult {
  double p50Ms = 0;       // median batch latency
  double itemsPerSec = 0; // items over the pass's wall time
};

PassResult bulkPass(Context& ctx, unsigned replication, const PointSet& stream,
                    const std::vector<PointSet>& batches,
                    const std::vector<QueryBox>* checkSet, LayerInputs* layers) {
  const ClusterOptions opts = shippedOptions(ctx, replication);
  const std::string label = "R=" + std::to_string(replication);
  e2e::SpanScope pass(ctx.spans, "pass." + label);
  VolapCluster cluster(ctx.schema, opts);
  if (replication >= 2) {
    e2e::SpanScope span(ctx.spans, "setup.await_chains", pass.id());
    ImageReader image(cluster);
    ctx.await([&] { return image.chained(initialShards(opts)); }, 30s,
              "chain replicas on every shard");
  }
  auto client = cluster.makeClient("e2e-bulk", 0);
  const std::vector<std::string> eps = liveEndpoints(cluster);
  e2e::Scrape before;
  if (layers != nullptr) before = e2e::scrape(cluster, eps);
  const std::uint64_t sent0 = cluster.fabric().sentCount();
  ctx.endSetup();

  std::vector<double> all;
  std::uint64_t ackedItems = 0;
  const std::uint64_t start = nowNanos();
  for (const PointSet& b : batches) {
    e2e::SpanScope call(ctx.spans, "client.bulkLoad", pass.id());
    const std::uint64_t t0 = nowNanos();
    const std::uint64_t applied = client->bulkLoad(b);
    all.push_back(e2e::msOf(nowNanos() - t0));
    ackedItems += applied;
    ++ctx.result.attempted;
    if (applied != b.size()) ++ctx.result.failed;
  }
  const double wall = static_cast<double>(nowNanos() - start) / 1e9;
  if (layers != nullptr) {
    const e2e::Scrape after = e2e::scrape(cluster, eps);
    layers->ops = static_cast<double>(batches.size());
    layers->items = static_cast<double>(stream.size());
    layers->netMessages = static_cast<double>(cluster.fabric().sentCount() - sent0);
    layers->clientRetries = static_cast<double>(client->retriesSent());
    emitLayers(ctx.result, before, after, *layers);
  }
  client.reset();
  if (checkSet != nullptr) {
    settle(ctx, cluster, opts.worker.statsIntervalNanos);
    checkAnswers(ctx, cluster, label, {&stream}, ackedItems, *checkSet);
  }
  return {e2e::quantile(all, 0.5), static_cast<double>(stream.size()) / wall};
}

void runBulkIngest(Context& ctx) {
  const Seeds seeds(ctx.args.seed);
  PointSet stream;
  std::vector<QueryBox> checkSet;
  {
    e2e::SpanScope span(ctx.spans, "setup.generate");
    stream = generateDatabase(ctx.schema, seeds.stream, kBulkPassItems);
    checkSet = makeCheckSet(ctx.schema, stream, seeds.checks);
  }
  const std::vector<PointSet> batches = batchesOf(stream, kBatchItems);
  LayerInputs layers;
  if (ctx.args.trace) timeStandaloneTree(ctx, stream, checkSet, layers);

  // Rounds of one R=2 pass and one R=1 pass: at least kBulkMinRounds, more
  // while time remains. The first round's clusters have their answers
  // checked (after the timed passes).
  std::vector<PassResult> pass2, pass1;
  std::uint64_t deadline = 0;
  for (unsigned round = 0;
       round < kBulkMinRounds || nowNanos() < deadline; ++round) {
    const auto* check = round == 0 ? &checkSet : nullptr;
    pass2.push_back(bulkPass(ctx, 2, stream, batches, check,
                             ctx.args.trace && round == 0 ? &layers : nullptr));
    if (round == 0) deadline = ctx.deadlineAfter(ctx.setupEndNanos);
    pass1.push_back(bulkPass(ctx, 1, stream, batches, check, nullptr));
  }
  // Whole passes fall at random into a mode ~2.5x slower than the rest
  // (README, "Best pass for bulk"); the best pass's median is the figure a
  // run can reproduce, and the notes keep every pass.
  auto best = [](const std::vector<PassResult>& v) {
    return *std::min_element(v.begin(), v.end(), [](auto& a, auto& b) {
      return a.p50Ms < b.p50Ms;
    });
  };
  const PassResult best2 = best(pass2), best1 = best(pass1);
  ctx.result.e2e("primary_ms", best2.p50Ms, "ms");
  ctx.result.e2e("secondary_ms", best1.p50Ms, "ms");
  for (const auto& [label, passes, b] :
       {std::tuple{"R=2", &pass2, best2}, std::tuple{"R=1", &pass1, best1}}) {
    std::string all;
    for (const auto& v : *passes) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.1f", v.p50Ms);
      all += buf;
    }
    ctx.result.note("bulk_batch_p50_ms (%s): %.3f ms in the best of %zu passes "
                    "(pass medians:%s)",
                    label, b.p50Ms, passes->size(), all.c_str());
    ctx.result.note("bulk_items_per_s (%s): %.1f items/s in that pass", label,
                    b.itemsPerSec);
  }
}

// ---- query_only and mixed_70_30 share a preloaded R=2 cluster -----------------

struct Preloaded {
  PointSet db;
  QuerySet queries;
  std::vector<QueryBox> checkSet;
  ClusterOptions opts;
  std::unique_ptr<VolapCluster> cluster;
  std::uint64_t ackedItems = 0;  // as the preload's acks report them
};

void setUpPreloaded(Context& ctx, Preloaded& p) {
  const Seeds seeds(ctx.args.seed);
  {
    e2e::SpanScope span(ctx.spans, "setup.generate");
    p.db = generateDatabase(ctx.schema, seeds.preload, kPreloadItems);
    p.queries = makeQuerySet(ctx.schema, p.db, seeds.queries);
    p.checkSet = makeCheckSet(ctx.schema, p.db, seeds.checks);
  }
  p.opts = shippedOptions(ctx, 2);
  p.cluster = std::make_unique<VolapCluster>(ctx.schema, p.opts);
  {
    e2e::SpanScope span(ctx.spans, "setup.await_chains");
    ImageReader image(*p.cluster);
    ctx.await([&] { return image.chained(initialShards(p.opts)); }, 30s,
              "chain replicas on every shard");
  }
  p.ackedItems = preload(ctx, *p.cluster, p.db);
  settle(ctx, *p.cluster, p.opts.worker.statsIntervalNanos);
}

/// One windowed session's latencies cut into kSliceNanos slices by
/// completion time. The session thread cuts its own client at each slice
/// boundary (Client is not thread-safe): it keeps the slice's histograms,
/// adds the client's counters to running totals and resets the client.
struct SessionSlices {
  std::vector<LatencyHistogram> query, insert;  // one per slice
  std::uint64_t queriesAnswered = 0, shardsSearched = 0, retries = 0;
  std::uint64_t insertsExpired = 0, queriesExpired = 0, partialReplies = 0;

  void cut(Client& c) {
    query.push_back(c.queryLatency());
    insert.push_back(c.insertLatency());
    queriesAnswered += c.queriesAnswered();
    shardsSearched += c.shardsSearchedTotal();
    retries += c.retriesSent();
    insertsExpired += c.insertsExpired();
    queriesExpired += c.queriesExpired();
    partialReplies += c.partialReplies();
    c.resetStats();
  }
};

/// Slices of the timed phase: the host's pace moves within a run (other
/// tenants' load comes and goes over seconds), so each figure is taken per
/// slice and the median over the slices is reported, which a burst of
/// foreign load in a few slices does not move. The first slice is warm-up
/// and the drain after the deadline is no slice; both still count towards
/// attempted and failed operations.
constexpr std::uint64_t kSliceNanos = 1'000'000'000;

/// Median over the measured slices (all but the first and the drain) of
/// `stat` applied to the slice's histogram, merged over sessions.
template <typename Stat>
double sliceMedian(const std::vector<SessionSlices>& sessions,
                   std::vector<LatencyHistogram> SessionSlices::*which,
                   Stat stat, std::vector<double>* each = nullptr) {
  std::size_t n = 0;
  for (const auto& s : sessions) n = std::max(n, (s.*which).size());
  std::vector<double> xs;
  for (std::size_t k = 1; k + 1 < n; ++k) {
    LatencyHistogram h;
    for (const auto& s : sessions)
      if (k < (s.*which).size()) h.merge((s.*which)[k]);
    if (h.count() > 0) xs.push_back(stat(h));
  }
  if (each != nullptr) *each = xs;
  return e2e::quantile(xs, 0.5);
}

double p50Ms(const LatencyHistogram& h) {
  return e2e::histQuantileNanos(h, 0.5) / 1e6;
}
double meanMs(const LatencyHistogram& h) { return h.meanNanos() / 1e6; }

std::string listOf(const std::vector<double>& xs) {
  std::string out;
  for (double x : xs) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.1f", x);
    out += buf;
  }
  return out;
}

/// query_only: one session per server keeps kWindow queries in flight (a
/// closed loop: a session sends its next query when one of its window
/// completes). Each query's band is drawn uniformly among the non-empty
/// coverage bands by the seeded RNG, then a query of that band.
void runQueryOnly(Context& ctx) {
  Preloaded p;
  setUpPreloaded(ctx, p);
  VolapCluster& cluster = *p.cluster;
  const Seeds seeds(ctx.args.seed);
  const unsigned sessions = cluster.serverCount();

  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned s = 0; s < sessions; ++s)
    clients.push_back(cluster.makeClient("e2e-query-" + std::to_string(s),
                                         static_cast<int>(s), kWindow));
  const auto eps = liveEndpoints(cluster);
  e2e::Scrape before;
  if (ctx.args.trace) before = e2e::scrape(cluster, eps);
  const std::uint64_t sent0 = cluster.fabric().sentCount();
  ctx.endSetup();

  std::vector<std::uint64_t> sentBy(sessions, 0);
  std::vector<SessionSlices> slices(sessions);
  const std::uint64_t start = nowNanos();
  const std::uint64_t deadline = ctx.deadlineAfter(start);
  {
    e2e::SpanScope phase(ctx.spans, "phase.query_only");
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < sessions; ++s)
      threads.emplace_back([&, s] {
        Rng rng(seeds.mix + s);
        Client& client = *clients[s];
        e2e::SpanScope session(ctx.spans, "session", phase.id());
        std::uint64_t nextCut = start + kSliceNanos;
        for (std::uint64_t now; (now = nowNanos()) < deadline;) {
          if (now >= nextCut) {
            slices[s].cut(client);
            nextCut += kSliceNanos;
          }
          const QueryBox* q = nullptr;
          p.queries.pick(rng, q);
          client.queryAsync(*q);
          ++sentBy[s];
        }
        slices[s].cut(client);
        e2e::SpanScope drain(ctx.spans, "client.drain", session.id());
        client.drain();
        slices[s].cut(client);
      });
    for (auto& th : threads) th.join();
  }
  const double wall = static_cast<double>(nowNanos() - start) / 1e9;

  LatencyHistogram all;
  std::uint64_t sent = 0;
  for (unsigned s = 0; s < sessions; ++s) {
    for (const auto& h : slices[s].query) all.merge(h);
    sent += sentBy[s];
    ctx.result.failed += slices[s].queriesExpired + slices[s].partialReplies;
  }
  ctx.result.attempted = sent;
  std::vector<double> eachP50;
  const double p50 = sliceMedian(slices, &SessionSlices::query, p50Ms, &eachP50);
  ctx.result.e2e("primary_ms", p50, "ms");
  // The mean, not a tail quantile: at a fixed window the mean latency is
  // the inverse of query_ops_per_s (Little's law), and the p90 spread half
  // again as widely as the p50 across seeds.
  ctx.result.e2e("secondary_ms",
                 sliceMedian(slices, &SessionSlices::query, meanMs), "ms");
  ctx.result.note("query_ops_per_s: %.1f queries/s (window %u x %u sessions)",
                  static_cast<double>(sent) / wall, kWindow, sessions);
  ctx.result.note("query_p50_ms: %.4f ms (median of %zu slices:%s)", p50,
                  eachP50.size(), listOf(eachP50).c_str());
  ctx.result.note("whole phase: query p50 %.4f ms; p90 %.4f ms; p99 %.4f ms; "
                  "mean %.4f ms (%" PRIu64 " samples)",
                  p50Ms(all), e2e::histQuantileNanos(all, 0.9) / 1e6,
                  e2e::histQuantileNanos(all, 0.99) / 1e6, meanMs(all),
                  all.count());
  for (unsigned b : p.queries.nonEmpty)
    ctx.result.note("  %s coverage band: %zu queries in the set",
                    coverageBandName(static_cast<CoverageBand>(b)),
                    p.queries.bands[b].size());

  if (ctx.args.trace) {
    const e2e::Scrape after = e2e::scrape(cluster, eps);
    LayerInputs in;
    in.ops = static_cast<double>(sent);
    in.netMessages = static_cast<double>(cluster.fabric().sentCount() - sent0);
    for (const auto& sl : slices) {
      in.clientQueries += static_cast<double>(sl.queriesAnswered);
      in.shardsSearched += static_cast<double>(sl.shardsSearched);
      in.clientRetries += static_cast<double>(sl.retries);
    }
    timeStandaloneTree(ctx, p.db, p.queries.all(), in);
    emitLayers(ctx.result, before, after, in);
  }
  clients.clear();
  settle(ctx, cluster, p.opts.worker.statsIntervalNanos);
  checkAnswers(ctx, cluster, "query_only", {&p.db}, p.ackedItems, p.checkSet);
}

void runMixed(Context& ctx) {
  Preloaded p;
  setUpPreloaded(ctx, p);
  VolapCluster& cluster = *p.cluster;
  const Seeds seeds(ctx.args.seed);
  const unsigned sessions = cluster.serverCount();

  // One pre-generated insert stream per session; like the bulk stream it
  // outlasts the run at today's rates.
  const std::size_t perSession =
      static_cast<std::size_t>(ctx.args.seconds * 20'000.0) + 10'000;
  std::vector<PointSet> streams;
  {
    e2e::SpanScope span(ctx.spans, "setup.generate_stream");
    for (unsigned s = 0; s < sessions; ++s) {
      DataGenerator gen(ctx.schema, seeds.stream + s);
      streams.push_back(gen.generate(perSession));
    }
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned s = 0; s < sessions; ++s)
    clients.push_back(cluster.makeClient("e2e-mixed-" + std::to_string(s),
                                         static_cast<int>(s), kWindow));
  const auto eps = liveEndpoints(cluster);
  e2e::Scrape before;
  if (ctx.args.trace) before = e2e::scrape(cluster, eps);
  const std::uint64_t sent0 = cluster.fabric().sentCount();
  ctx.endSetup();

  std::vector<std::size_t> inserted(sessions, 0), queried(sessions, 0);
  std::vector<SessionSlices> slices(sessions);
  const std::uint64_t start = nowNanos();
  const std::uint64_t deadline = ctx.deadlineAfter(start);
  {
    e2e::SpanScope phase(ctx.spans, "phase.mixed_70_30");
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < sessions; ++s)
      threads.emplace_back([&, s] {
        Rng rng(seeds.mix + s);
        Client& client = *clients[s];
        e2e::SpanScope session(ctx.spans, "session", phase.id());
        std::uint64_t nextCut = start + kSliceNanos;
        for (std::uint64_t now;
             (now = nowNanos()) < deadline && inserted[s] < streams[s].size();) {
          if (now >= nextCut) {
            slices[s].cut(client);
            nextCut += kSliceNanos;
          }
          if (rng.below(100) < kMixedInsertPct) {
            client.insertAsync(streams[s].at(inserted[s]++));
          } else {
            const QueryBox* q = nullptr;
            p.queries.pick(rng, q);
            client.queryAsync(*q);
            ++queried[s];
          }
        }
        slices[s].cut(client);
        e2e::SpanScope drain(ctx.spans, "client.drain", session.id());
        client.drain();
        slices[s].cut(client);
      });
    for (auto& th : threads) th.join();
  }
  const double wall = static_cast<double>(nowNanos() - start) / 1e9;

  LatencyHistogram ins, qry;
  std::size_t ops = 0;
  std::uint64_t ackedItems = p.ackedItems;
  for (unsigned s = 0; s < sessions; ++s) {
    const SessionSlices& sl = slices[s];
    for (const auto& h : sl.insert) ins.merge(h);
    for (const auto& h : sl.query) qry.merge(h);
    ops += inserted[s] + queried[s];
    ackedItems += inserted[s] - sl.insertsExpired;
    ctx.result.failed +=
        sl.insertsExpired + sl.queriesExpired + sl.partialReplies;
  }
  ctx.result.attempted = ops;
  std::vector<double> eachIns, eachQry;
  const double insP50 =
      sliceMedian(slices, &SessionSlices::insert, p50Ms, &eachIns);
  const double qryP50 =
      sliceMedian(slices, &SessionSlices::query, p50Ms, &eachQry);
  ctx.result.e2e("primary_ms", insP50, "ms");
  ctx.result.e2e("secondary_ms", qryP50, "ms");
  ctx.result.note("mixed_ops_per_s: %.1f ops/s (%zu ops, window %u x %u sessions)",
                  ops / wall, ops, kWindow, sessions);
  ctx.result.note("mixed_insert_p50_ms: %.4f ms (median of %zu slices:%s)",
                  insP50, eachIns.size(), listOf(eachIns).c_str());
  ctx.result.note("mixed_query_p50_ms: %.4f ms (median of %zu slices:%s)",
                  qryP50, eachQry.size(), listOf(eachQry).c_str());
  ctx.result.note("whole phase: insert p50 %.4f ms, p99 %.4f ms (%" PRIu64
                  " samples); query p50 %.4f ms, p99 %.4f ms (%" PRIu64
                  " samples)",
                  p50Ms(ins), e2e::histQuantileNanos(ins, 0.99) / 1e6,
                  ins.count(), p50Ms(qry),
                  e2e::histQuantileNanos(qry, 0.99) / 1e6, qry.count());

  if (ctx.args.trace) {
    const e2e::Scrape after = e2e::scrape(cluster, eps);
    LayerInputs in;
    in.ops = static_cast<double>(ops);
    for (auto n : inserted) in.items += static_cast<double>(n);
    in.netMessages = static_cast<double>(cluster.fabric().sentCount() - sent0);
    for (const auto& sl : slices) {
      in.clientQueries += static_cast<double>(sl.queriesAnswered);
      in.shardsSearched += static_cast<double>(sl.shardsSearched);
      in.clientRetries += static_cast<double>(sl.retries);
    }
    timeStandaloneTree(ctx, p.db, p.queries.all(), in);
    emitLayers(ctx.result, before, after, in);
  }
  clients.clear();
  std::vector<PointSet> acked;
  for (unsigned s = 0; s < sessions; ++s)
    acked.push_back(prefixOf(streams[s], inserted[s]));
  std::vector<const PointSet*> sets{&p.db};
  for (const auto& a : acked) sets.push_back(&a);
  settle(ctx, cluster, p.opts.worker.statsIntervalNanos);
  checkAnswers(ctx, cluster, "mixed_70_30", sets, ackedItems, p.checkSet);
}

// ---- crash_recovery -------------------------------------------------------------

/// Detection timers shortened as bench/recovery does, so that a crash is
/// detected in ~0.4 s rather than ~4.5 s. Checkpoints keep their default
/// interval: a preload into a cluster that checkpoints every shard every
/// 60 ms spread its set-up time widely.
ClusterOptions recoveryOptions(const Context& ctx, unsigned replication) {
  ClusterOptions o = shippedOptions(ctx, replication);
  o.worker.statsIntervalNanos = 40'000'000;
  o.server.syncIntervalNanos = 100'000'000;
  o.manager.periodNanos = 50'000'000;
  o.manager.aliveTimeoutNanos = 250'000'000;
  o.manager.deadGraceNanos = 150'000'000;
  return o;
}

/// One crash, all times in nanoseconds from the crash (0 = not reached).
struct Recovery {
  bool exact = false;
  std::uint64_t detect = 0;   // the manager fenced a first victim shard
  std::uint64_t exactAt = 0;  // the first exact full-coverage answer
  std::uint64_t rehostAt = 0; // the manager counted every victim shard re-hosted
  /// Recovered: every victim shard re-hosted and an exact answer served.
  /// With R=2 reads turn exact first (replicas answer them) and the
  /// promotions end the span; with R=1 both wait for cold replay.
  std::uint64_t recoveredAt() const { return std::max(exactAt, rehostAt); }
  double fromCrashMs() const { return e2e::msOf(recoveredAt()); }
  double fromDetectionMs() const { return e2e::msOf(recoveredAt() - detect); }
};

/// Probe traffic, for the per-layer metrics.
struct ProbeStats {
  std::uint64_t sent = 0, replies = 0, shardsSearched = 0, messages = 0;
};

/// Full-coverage probes sent straight onto the fabric, each under its own
/// correlation id, so that a probe stuck behind the dead worker (the server
/// retries it for its whole worker-retry budget) does not delay the next,
/// until an answer is exact and `rehosted()` holds. The first 100 go out
/// every 0.1 ms, the rest every 1 ms: a recovery usually turns exact within
/// 40 ms of detection, and a slow one should not be buried under probes
/// that each hold a server retry entry for ~1.58 s.
/// Fills the times (from `t0`) at which each first happened; a time stays
/// 0 if it did not happen before `deadline`.
template <typename Rehosted>
void probeUntilRecovered(Context& ctx, VolapCluster& cluster,
                         std::uint64_t expectCount, std::uint64_t t0,
                         std::uint64_t deadline, Rehosted rehosted,
                         Recovery& rec, ProbeStats& stats) {
  static std::atomic<unsigned> seq{0};
  const std::string me = "client/e2e-probe-" + std::to_string(++seq);
  auto inbox = cluster.fabric().bind(me);
  ByteWriter w;
  QueryBox(ctx.schema).serialize(w);
  const SharedBlob payload(w.take());
  constexpr std::uint64_t kFastProbes = 100;
  constexpr std::uint64_t kFastNanos = 100'000, kSlowNanos = 1'000'000;
  const std::uint64_t sent0 = cluster.fabric().sentCount();
  std::uint64_t corr = 0, nextSend = nowNanos();
  while (rec.exactAt == 0 || rec.rehostAt == 0) {
    std::uint64_t now = nowNanos();
    if (now >= deadline) break;
    if (rec.rehostAt == 0 && rehosted()) rec.rehostAt = now - t0;
    if (rec.exactAt != 0) {  // only the re-hosting is left to wait for
      std::this_thread::sleep_for(50us);
      continue;
    }
    if (now >= nextSend) {
      cluster.fabric().send(serverEndpoint(0),
                            makeMessage(Op::kQuery, ++corr, me, payload));
      ++stats.sent;
      nextSend += stats.sent < kFastProbes ? kFastNanos : kSlowNanos;
    }
    now = nowNanos();
    auto m = inbox->recvFor(
        std::chrono::nanoseconds(nextSend > now ? nextSend - now : 0));
    if (!m || m->type != static_cast<std::uint16_t>(Op::kQueryReply)) continue;
    const QueryReply r = QueryReply::decode(m->payload);
    ++stats.replies;
    stats.shardsSearched += r.shardsSearched;
    if (!r.partial && r.agg.count == expectCount) {
      rec.exactAt = nowNanos() - t0;
      stats.messages = cluster.fabric().sentCount() - sent0;
    }
  }
  cluster.fabric().unbind(me);
  rec.exact = rec.exactAt != 0 && rec.rehostAt != 0;
}

Recovery recoverOnce(Context& ctx, unsigned replication, const PointSet& db,
                     const std::vector<QueryBox>& checkSet, bool first,
                     RecoveryLayers* layers) {
  const ClusterOptions opts = recoveryOptions(ctx, replication);
  const std::string label = replication >= 2 ? "failover" : "replay";
  e2e::SpanScope cycle(ctx.spans, "recovery." + label);
  VolapCluster cluster(ctx.schema, opts);
  ImageReader image(cluster);
  if (replication >= 2) {
    e2e::SpanScope span(ctx.spans, "setup.await_chains", cycle.id());
    ctx.await([&] { return image.chained(initialShards(opts)); }, 30s,
              "chain replicas on every shard");
  }
  const std::uint64_t ackedItems = preload(ctx, cluster, db);
  {
    // The victim checkpoints every shard it holds after the preload, so
    // cold replay restores a checkpoint, not the whole preload from WAL.
    e2e::SpanScope span(ctx.spans, "setup.await_checkpoints", cycle.id());
    Worker& victim = cluster.worker(kVictim);
    const std::uint64_t taken = victim.checkpointsTaken();
    ctx.await([&] { return victim.checkpointsTaken() >= taken + victim.shardCount(); },
              20s, "victim checkpoints");
  }
  std::vector<std::pair<ShardId, std::uint64_t>> victimEpochs;
  for (const auto& s : image.shards())
    if (s.worker == kVictim)
      victimEpochs.emplace_back(s.id, cluster.durable().epochOf(s.id));
  // recoveriesDone() counts promotions and cold recoveries alike. It is 0
  // unless the manager declared a live worker dead during set-up.
  const std::uint64_t handled0 = cluster.manager().recoveriesDone();
  if (handled0 != 0)
    ctx.result.note("%s: %" PRIu64 " shards re-hosted before the crash",
                    label.c_str(), handled0);
  e2e::Scrape before;
  // The victim's registry dies with it: both scrapes cover the survivors.
  if (layers != nullptr) before = e2e::scrape(cluster, liveEndpoints(cluster, kVictim));
  if (first) ctx.endSetup();

  // Traced runs watch the published image from a second thread while the
  // probes run.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> publishAt{0};
  const std::uint64_t t0 = nowNanos();
  std::thread watcher;
  if (layers != nullptr)
    watcher = std::thread([&] {
      ImageReader observer(cluster);
      while (!stop.load() && publishAt == 0) {
        const std::uint64_t now = nowNanos();
        const auto shards = observer.shards();
        bool published = !shards.empty();
        for (const auto& s : shards)
          for (const auto& [id, epoch] : victimEpochs)
            if (s.id == id && s.worker == kVictim) published = false;
        if (published) publishAt = now - t0;
        std::this_thread::sleep_for(500us);
      }
    });

  Recovery rec;
  ProbeStats probes;
  {
    e2e::SpanScope span(ctx.spans, "crash_to_recovered", cycle.id());
    cluster.crashWorker(kVictim);
    const std::uint64_t deadline = t0 + 15'000'000'000ull;
    // Detection: the supervisor fences every shard of a worker it declares
    // dead before it promotes or recovers any, which bumps the shard's
    // epoch in the durable store.
    auto fenced = [&] {
      for (const auto& [id, epoch] : victimEpochs)
        if (cluster.durable().epochOf(id) > epoch) return true;
      return false;
    };
    {
      e2e::SpanScope wait(ctx.spans, "await_detection", span.id());
      while (!fenced() && nowNanos() < deadline) std::this_thread::sleep_for(50us);
    }
    if (fenced()) {
      rec.detect = nowNanos() - t0;
      e2e::SpanScope probe(ctx.spans, "probe_until_recovered", span.id());
      probeUntilRecovered(
          ctx, cluster, ackedItems, t0, deadline,
          [&] {
            return cluster.manager().recoveriesDone() >=
                   handled0 + victimEpochs.size();
          },
          rec, probes);
    }
  }
  if (watcher.joinable()) {
    e2e::waitUntil([&] { return publishAt != 0; }, 5s);
    stop = true;
    watcher.join();
    // Timed from detection, like the gated figures.
    auto fromDetection = [&](std::uint64_t at) {
      return at > rec.detect ? e2e::msOf(at - rec.detect) : 0.0;
    };
    if (replication >= 2) {
      layers->failoverRehostMs = fromDetection(rec.rehostAt);
      layers->failoverPublishMs = fromDetection(publishAt);
      layers->before = before;
      layers->after = e2e::scrape(cluster, liveEndpoints(cluster, kVictim));
      layers->ops = static_cast<double>(probes.sent);
      layers->clientQueries = static_cast<double>(probes.replies);
      layers->shardsSearched = static_cast<double>(probes.shardsSearched);
      // Every probe asks for every shard, answered or not yet.
      layers->shardsRequested =
          static_cast<double>(probes.sent * initialShards(opts));
      layers->netMessages = static_cast<double>(probes.messages);
    } else {
      layers->replayRehostMs = fromDetection(rec.rehostAt);
      layers->replayPublishMs = fromDetection(publishAt);
    }
  }
  if (!rec.exact) {
    ctx.result.note("%s: not recovered 15 s after the crash: detected at %.1f ms, "
                    "exact answer at %.1f ms, re-hosted at %.1f ms (0 = never); "
                    "%" PRIu64 " of %zu victim shards re-hosted; %" PRIu64
                    " probes sent, %" PRIu64 " answered",
                    label.c_str(), e2e::msOf(rec.detect), e2e::msOf(rec.exactAt),
                    e2e::msOf(rec.rehostAt),
                    cluster.manager().recoveriesDone() - handled0,
                    victimEpochs.size(), probes.sent, probes.replies);
    return rec;
  }
  if (replication >= 2)
    ctx.await([&] { return image.chained(initialShards(opts), kVictim); }, 30s,
              "chains repaired after failover");
  settle(ctx, cluster, opts.worker.statsIntervalNanos);
  checkAnswers(ctx, cluster, label, {&db}, ackedItems, checkSet);
  return rec;
}

void runCrashRecovery(Context& ctx) {
  const Seeds seeds(ctx.args.seed);
  PointSet db;
  std::vector<QueryBox> checkSet;
  {
    e2e::SpanScope span(ctx.spans, "setup.generate");
    db = generateDatabase(ctx.schema, seeds.preload, kCrashPreloadItems);
    checkSet = makeCheckSet(ctx.schema, db, seeds.checks);
  }
  std::vector<Recovery> failover, replay;
  RecoveryLayers layers;
  std::uint64_t deadline = 0;
  for (bool first = true; first || nowNanos() < deadline; first = false) {
    for (unsigned r : {2u, 1u}) {
      const bool traceThis = ctx.args.trace && first;
      const Recovery rec = recoverOnce(ctx, r, db, checkSet, first && r == 2,
                                       traceThis ? &layers : nullptr);
      if (first && r == 2) deadline = ctx.deadlineAfter(ctx.setupEndNanos);
      ++ctx.result.attempted;
      if (!rec.exact) {
        ++ctx.result.failed;
        continue;
      }
      (r == 2 ? failover : replay).push_back(rec);
    }
  }
  if (ctx.args.trace) emitLayers(ctx.result, layers.before, layers.after, layers);
  auto median = [](const std::vector<Recovery>& v, auto field) {
    std::vector<double> xs;
    for (const Recovery& r : v) xs.push_back(field(r));
    return e2e::quantile(xs, 0.5);
  };
  auto fromCrash = [](const Recovery& r) { return r.fromCrashMs(); };
  auto fromDetection = [](const Recovery& r) { return r.fromDetectionMs(); };
  auto exactFromDetection = [](const Recovery& r) {
    return e2e::msOf(r.exactAt - r.detect);
  };
  auto detection = [](const Recovery& r) { return e2e::msOf(r.detect); };
  ctx.result.e2e("primary_ms", median(failover, fromCrash), "ms");
  ctx.result.e2e("secondary_ms", median(replay, fromCrash), "ms");
  for (const auto& [name, v] :
       {std::pair{"failover (R=2, promotion)", &failover},
        std::pair{"replay (R=1, cold replay)", &replay}}) {
    std::string each;
    for (const Recovery& r : *v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.2f", r.fromDetectionMs());
      each += buf;
    }
    ctx.result.note("%s over %zu crashes, medians: crash to recovered (MTTR) "
                    "%.1f ms; crash to detection %.1f ms; detection to "
                    "recovered %.2f ms (each:%s); detection to exact %.2f ms",
                    name, v->size(), median(*v, fromCrash), median(*v, detection),
                    median(*v, fromDetection), each.c_str(),
                    median(*v, exactFromDetection));
  }
  ctx.result.note("failover_mttr_ms: %.1f ms; replay_mttr_ms: %.1f ms",
                  median(failover, fromCrash), median(replay, fromCrash));
}

// ---- output ---------------------------------------------------------------------

void printResult(const Context& ctx) {
  const Result& r = ctx.result;
  for (const auto& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const auto& f : ctx.checker.failures())
    std::printf("# CHECK FAILED %s\n", f.c_str());
  // A traced run still shows its end-to-end figures, for the tracing
  // overhead (traced minus untraced); its result carries the layers.
  if (ctx.args.trace)
    for (const auto& m : r.endToEnd)
      std::printf("# traced end-to-end %s: %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  const auto& metrics = ctx.args.trace ? r.layers : r.endToEnd;
  std::string json = "{\"correct\": ";
  json += ctx.checker.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void usage() {
  std::fprintf(stderr,
               "usage: volap_e2e --workload "
               "<bulk_ingest|query_only|mixed_70_30|crash_recovery> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       volap_e2e --self-test\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    usage();
    return 2;
  }
  // The checker's own self-test runs first in every run: a checker that
  // cannot catch a wrong answer makes every "correct" meaningless.
  const std::string missed = e2e::selfTest();
  if (args.selfTest) {
    std::printf("checker self-test: %s\n", missed.empty() ? "ok" : missed.c_str());
    return missed.empty() ? 0 : 1;
  }
  using Runner = void (*)(Context&);
  const std::pair<const char*, Runner> kWorkloads[] = {
      {"bulk_ingest", runBulkIngest},
      {"query_only", runQueryOnly},
      {"mixed_70_30", runMixed},
      {"crash_recovery", runCrashRecovery},
  };
  Runner run = nullptr;
  for (const auto& [name, fn] : kWorkloads)
    if (args.workload == name) run = fn;
  if (run == nullptr) {
    usage();
    return 2;
  }

  Context ctx(args);
  if (args.trace) ctx.spans.enable();
  if (!missed.empty()) ctx.checker.fail("checker self-test: " + missed);
  run(ctx);
  ctx.result.e2e("setup_s", ctx.setupSeconds(), "s");
  ctx.result.e2e("peak_rss_mb", e2e::peakRssMb(), "MB");
  if (ctx.spans.on()) {
    const char* dir = std::getenv("VOLAP_E2E_SPANS_DIR");
    const std::string path = std::string(dir ? dir : ".") + "/spans-" +
                             args.workload + "-" + std::to_string(args.seed) +
                             ".jsonl";
    if (ctx.spans.write(path))
      ctx.result.note("spans: %zu written to %s", ctx.spans.size(), path.c_str());
  }
  printResult(ctx);
  return 0;
}
