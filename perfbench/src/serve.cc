// The serve phase: read-only Searches over loopback TCP.
#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "common/random.h"
#include "load.h"
#include "net/client.h"
#include "net/server.h"
#include "phases.h"
#include "sizes.h"

namespace perfbench {

namespace {

/// Structural and numeric checks every served reply must pass: min(k,
/// live) neighbours, distinct in-range ids, ascending distances, each
/// distance within the kernel tolerance of the oracle's exact distance.
/// Returns the reply's recall against the oracle.
double CheckServeReply(RunContext* ctx, const ServeSetup& setup, size_t q,
                       const std::vector<vdt::Neighbor>& got) {
  Checks& checks = ctx->checks;
  const size_t want = std::min(kServeK, setup.data.rows());
  checks.Expect(got.size() == want, "serve: reply has min(k, live) neighbours");
  std::unordered_set<int64_t> seen;
  const float* query = setup.queries.Row(q);
  for (size_t i = 0; i < got.size(); ++i) {
    const int64_t id = got[i].id;
    const bool in_range =
        id >= 0 && static_cast<size_t>(id) < setup.data.rows();
    checks.Expect(in_range, "serve: neighbour id in range");
    checks.Expect(seen.insert(id).second, "serve: neighbour ids distinct");
    if (i > 0) {
      checks.Expect(got[i - 1].distance <= got[i].distance,
                    "serve: distances ascending");
    }
    if (!in_range) continue;
    const float* row = setup.data.Row(static_cast<size_t>(id));
    const double exact =
        ExactDistance(ctx->metric, query, row, setup.data.dim());
    checks.Expect(std::abs(static_cast<double>(got[i].distance) - exact) <=
                      KernelTolerance(query, row, setup.data.dim()),
                  "serve: distance matches the exact distance");
  }
  return Recall(got, setup.truth[q]);
}

}  // namespace

/// Recall per query, written from the connection threads. A query's
/// results are deterministic, so every reply writes the same value and the
/// mean over queries does not depend on how often each was sent.
struct QueryRecall {
  std::mutex mu;
  std::vector<double> recall;
  std::vector<uint8_t> seen;
  explicit QueryRecall(size_t queries) : recall(queries), seen(queries) {}
  void Set(size_t q, double r) {
    std::lock_guard<std::mutex> lock(mu);
    recall[q] = r;
    seen[q] = 1;
  }
  double Mean() {
    std::lock_guard<std::mutex> lock(mu);
    double sum = 0;
    size_t n = 0;
    for (size_t q = 0; q < recall.size(); ++q) {
      if (seen[q] == 0) continue;
      sum += recall[q];
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

namespace {

vdt::net::StatsReplyWire FetchStats(RunContext* ctx, uint16_t port,
                                    const std::string& collection) {
  vdt::net::VdtClient client;
  if (vdt::Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    Fatal("connect: " + st.ToString());
  }
  vdt::Result<vdt::net::StatsReplyWire> stats = [&] {
    Span span("net", "VdtClient::Stats");
    return client.Stats(collection);
  }();
  ctx->ops.Record("Stats", stats.status());
  if (!stats.ok()) Fatal("stats: " + stats.status().ToString());
  return *stats;
}

/// A seeded sample of wire replies must be byte-identical to in-process
/// VdmsEngine::Search on the same request.
void CheckWireMatchesInProcess(RunContext* ctx, const ServeSetup& setup,
                               uint16_t port) {
  vdt::net::VdtClient client;
  if (vdt::Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    Fatal("connect: " + st.ToString());
  }
  vdt::Rng rng(SubSeed(ctx->options.seed, 71));
  for (size_t s = 0; s < kServeParitySamples; ++s) {
    const size_t q = rng.UniformInt(static_cast<uint64_t>(setup.queries.rows()));
    const vdt::SearchRequest request = vdt::SearchRequest::Single(
        setup.queries.Row(q), setup.queries.dim(), kServeK);
    vdt::Result<vdt::net::SearchReplyWire> wire = [&] {
      Span span("net", "VdtClient::Search");
      return client.Search(kServeCollection, request);
    }();
    ctx->ops.Record("Search", wire.status());
    vdt::Result<vdt::SearchResponse> local = [&] {
      Span span("vdms", "VdmsEngine::Search");
      return setup.engine->Search(kServeCollection, request);
    }();
    ctx->ops.Record("Search", local.status());
    if (!wire.ok() || !local.ok()) continue;
    vdt::net::SearchReplyWire expect;
    expect.neighbors = local->neighbors;
    expect.work = local->work;
    ctx->checks.Expect(vdt::net::EncodeSearchReply(*wire) ==
                           vdt::net::EncodeSearchReply(expect),
                       "serve: wire reply byte-identical to in-process");
  }
}

}  // namespace

ServeSetup MakeServeSetup(RunContext* ctx) {
  ServeSetup setup;
  const uint64_t seed = ctx->options.seed;
  setup.data = vdt::GenerateDataset(ctx->spec->profile, kServeRows, kServeDim,
                                    SubSeed(kDataSeed, 1));
  setup.queries = vdt::GenerateQueries(ctx->spec->profile, kServeQueries,
                                       kServeDim, SubSeed(seed, 2));
  setup.truth = ExactTopK(ctx->metric, setup.data, nullptr, setup.queries,
                          kServeK, ctx->options.threads);

  setup.engine = std::make_unique<vdt::VdmsEngine>();
  vdt::CollectionOptions copts;
  copts.name = kServeCollection;
  copts.metric = ctx->metric;
  copts.scale.actual_rows = kServeRows;
  copts.system.num_shards = kShards;
  copts.index.type = vdt::IndexType::kIvfFlat;
  copts.index.params.build_threads = static_cast<int>(ctx->options.threads);
  copts.seed = SubSeed(kDataSeed, 3);
  if (vdt::Status st = setup.engine->CreateCollection(copts); !st.ok()) {
    Fatal("create: " + st.ToString());
  }
  {
    Span span("vdms", "VdmsEngine::Insert");
    ctx->ops.Record("Insert", setup.engine->Insert(kServeCollection, setup.data));
  }
  {
    Span span("vdms", "VdmsEngine::Flush");
    ctx->ops.Record("Flush", setup.engine->Flush(kServeCollection));
  }
  return setup;
}

ServePhase::ServePhase(RunContext* ctx, ServeSetup* setup)
    : ctx_(ctx),
      setup_(setup),
      recall_(std::make_unique<QueryRecall>(setup->queries.rows())) {
  vdt::net::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = std::min(kServerWorkers, ctx->options.threads);
  sopts.queue_depth = 256;
  // Paced and closed-loop traffic go to two servers over the same engine, so
  // each server's Stats op describes one kind of load.
  paced_server_ = std::make_unique<vdt::net::VdtServer>(setup->engine.get(),
                                                        sopts);
  closed_server_ = std::make_unique<vdt::net::VdtServer>(setup->engine.get(),
                                                         sopts);
  for (vdt::net::VdtServer* server :
       {paced_server_.get(), closed_server_.get()}) {
    if (vdt::Status st = server->Start(); !st.ok()) {
      Fatal("server start: " + st.ToString());
    }
  }
}

ServePhase::~ServePhase() = default;

ReplyCheck ServePhase::Check() {
  RunContext* ctx = ctx_;
  const ServeSetup& setup = *setup_;
  QueryRecall& recall = *recall_;
  return [ctx, &setup, &recall](size_t q, uint64_t,
                                const vdt::net::SearchReplyWire& reply) {
    ctx->checks.Expect(reply.neighbors.size() == 1,
                       "serve: one result list per query");
    if (reply.neighbors.size() != 1) return;
    recall.Set(q, CheckServeReply(ctx, setup, q, reply.neighbors[0]));
  };
}

void ServePhase::Slot() {
  Paced();
  Closed();
}

void ServePhase::Paced() {
  Span phase("bench", "round.serve_paced");
  const size_t connections =
      std::min(kServePacedConnections, ctx_->options.threads);
  const LoadResult paced = RunPaced(
      &ctx_->ops, paced_server_->port(), kServeCollection, setup_->queries,
      kServeK, kServePacedRate, kPacedPerBurst, connections, nullptr, nullptr,
      Check());
  paced_p50_us_.push_back(paced.latency_us.Median());
  paced_p90_us_.push_back(paced.latency_us.Percentile(0.90));
  paced_tail_us_.push_back(paced.latency_us.Percentile(kPacedTail));
  service_us_.Append(paced.service_us);
  lateness_us_.Append(paced.lateness_us);
}

void ServePhase::Closed() {
  Span phase("bench", "round.serve_closed");
  const LoadResult closed =
      RunClosed(&ctx_->ops, closed_server_->port(), kServeCollection,
                setup_->queries, kServeK, kServeClosedSeconds,
                ctx_->options.threads, Check());
  qps_.push_back(
      WindowedRate(closed.completions_s, closed.elapsed_s, kRateWindowSeconds));
}

void ServePhase::Finish() {
  RunContext* ctx = ctx_;
  const vdt::net::StatsReplyWire paced_stats =
      FetchStats(ctx, paced_server_->port(), kServeCollection);
  const vdt::net::StatsReplyWire closed_stats =
      FetchStats(ctx, closed_server_->port(), kServeCollection);
  CheckWireMatchesInProcess(ctx, *setup_, paced_server_->port());
  paced_server_->Stop();
  closed_server_->Stop();
  ctx->checks.Expect(
      closed_stats.has_collection &&
          closed_stats.live_rows == setup_->data.rows() &&
          closed_stats.stored_rows ==
              closed_stats.live_rows + closed_stats.tombstoned_rows,
      "serve: collection stats consistent");

  ctx->e2e.Set("search_qps", *std::max_element(qps_.begin(), qps_.end()),
               "1/s");
  ctx->e2e.Set("search_p50_us", Best(paced_p50_us_), "us");
  ctx->e2e.Set("search_recall", recall_->Mean(), "fraction");
  std::printf(
      "serve: %zu bursts of %zu paced searches at %.0f/s over %zu "
      "connections, %zu bursts of %.1f s of closed-loop load on %zu "
      "connections\n"
      "serve: per paced burst p50 %s us, p90 %s us, p%.0f (%.0f samples "
      "beyond) %s us; per closed-loop burst qps %s; generator lateness p50 "
      "%.1f us max %.1f us\n",
      paced_p50_us_.size(), kPacedPerBurst, kServePacedRate,
      std::min(kServePacedConnections, ctx->options.threads), qps_.size(),
      kServeClosedSeconds, ctx->options.threads,
      Join(paced_p50_us_).c_str(), Join(paced_p90_us_).c_str(),
      100 * kPacedTail, (1 - kPacedTail) * kPacedPerBurst,
      Join(paced_tail_us_).c_str(), Join(qps_).c_str(),
      lateness_us_.Median(), lateness_us_.Percentile(1.0));

  // The Stats op reports log-bucket lower bounds (12.5% steps); they are
  // printed, and enter the metrics only through the differences below.
  const auto& ep =
      paced_stats.endpoints[static_cast<int>(vdt::net::Op::kSearch) - 1];
  ctx->server_search_p50_us = static_cast<double>(ep.p50_us);
  std::printf("serve: server Stats op, paced traffic: %llu searches, p50 %llu "
              "us, p99 %llu us\n",
              static_cast<unsigned long long>(ep.count),
              static_cast<unsigned long long>(ep.p50_us),
              static_cast<unsigned long long>(ep.p99_us));
  Report& layers = ctx->layers;
  layers.Set("net.wire_us", service_us_.Median() - ctx->server_search_p50_us,
             "us");
  layers.Set("net.coalesce_batch_p50",
             static_cast<double>(closed_stats.coalesce_batch.p50_us), "count");
  layers.Set("net.coalesced_requests",
             static_cast<double>(closed_stats.coalesced_requests), "count");
}

}  // namespace perfbench
