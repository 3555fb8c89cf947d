// The churn phase: durable writes beside paced reads, then recovery.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/random.h"
#include "load.h"
#include "net/client.h"
#include "net/server.h"
#include "phases.h"
#include "sizes.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct DiskUsage {
  uint64_t wal = 0;
  uint64_t segments = 0;  // every other file, the manifest included
  uint64_t total() const { return wal + segments; }
};

DiskUsage MeasureDisk(const std::string& dir) {
  DiskUsage usage;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const uint64_t bytes = entry.file_size();
    if (entry.path().extension() == ".vwal") {
      usage.wal += bytes;
    } else {
      usage.segments += bytes;
    }
  }
  return usage;
}

/// Every live collection id of `name`'s current snapshot, sorted.
std::vector<int64_t> LiveIds(vdt::VdmsEngine* engine, const char* name) {
  vdt::Result<vdt::CollectionHandle> handle = engine->Open(name);
  if (!handle.ok()) Fatal("open handle: " + handle.status().ToString());
  const auto snapshot = (*handle)->Snapshot();
  std::vector<int64_t> ids;
  for (const vdt::ShardView& shard : snapshot->shards) {
    for (const vdt::SegmentView& seg : shard.sealed) {
      for (size_t local = 0; local < seg.rows(); ++local) {
        if (!seg.IsDeleted(local)) ids.push_back(seg.segment->IdAt(local));
      }
    }
    size_t offset = 0;
    const auto& tomb = shard.growing.tombstones;
    for (const auto& chunk_ids : shard.growing.chunk_ids) {
      for (size_t i = 0; i < chunk_ids->size(); ++i, ++offset) {
        if (tomb == nullptr || tomb->bits[offset] == 0) {
          ids.push_back((*chunk_ids)[i]);
        }
      }
    }
    for (size_t i = 0; i < shard.buffer.ids.size(); ++i) {
      if (shard.buffer.tombstones.empty() || shard.buffer.tombstones[i] == 0) {
        ids.push_back(shard.buffer.ids[i]);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool SameNeighbors(const std::vector<std::vector<vdt::Neighbor>>& a,
                   const std::vector<std::vector<vdt::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id ||
          std::memcmp(&a[q][i].distance, &b[q][i].distance, sizeof(float)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

/// Checks one result list against the rows it names: distinct ids of
/// inserted rows, ascending distances matching the exact distance.
void CheckChurnList(RunContext* ctx, const ChurnSetup& setup, size_t q,
                    const std::vector<vdt::Neighbor>& got, size_t id_bound) {
  Checks& checks = ctx->checks;
  std::unordered_set<int64_t> seen;
  const float* query = setup.queries.Row(q);
  for (size_t i = 0; i < got.size(); ++i) {
    const int64_t id = got[i].id;
    const bool in_range = id >= 0 && static_cast<size_t>(id) < id_bound;
    checks.Expect(in_range, "churn: neighbour id was inserted");
    checks.Expect(seen.insert(id).second, "churn: neighbour ids distinct");
    if (i > 0) {
      checks.Expect(got[i - 1].distance <= got[i].distance,
                    "churn: distances ascending");
    }
    if (!in_range) continue;
    const float* row = setup.data.Row(static_cast<size_t>(id));
    const double exact = ExactDistance(ctx->metric, query, row, kChurnDim);
    checks.Expect(std::abs(static_cast<double>(got[i].distance) - exact) <=
                      KernelTolerance(query, row, kChurnDim),
                  "churn: distance matches the exact distance");
  }
}

}  // namespace

/// What one churn cycle measured.
struct ChurnCycle {
  Samples search_us;  // paced Searches, timed from their due time
  /// Duration of every write-timeline operation, in timeline order.
  std::vector<double> op_s;
  Samples insert_us;
  Samples delete_us;
  Samples flush_call_s;
  double flush_s = 0;
  double compact_s = 0;
  double recover_s = 0;
  double recall = 0;
  uint64_t wal_bytes = 0;
  DiskUsage disk;
  size_t sealed_segments = 0;
  size_t compactions = 0;
};

namespace {

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

ChurnCycle RunCycle(RunContext* ctx, const ChurnSetup& setup,
                     const std::string& dir) {
  ChurnCycle result;
  fs::remove_all(dir);
  fs::create_directories(dir);
  vdt::VdmsEngineOptions eopts;
  eopts.data_dir = dir;
  eopts.wal_sync = vdt::WalSyncPolicy::kEveryRecord;

  auto engine = std::make_unique<vdt::VdmsEngine>(eopts);
  {
    Span span("storage", "VdmsEngine::Open");
    ctx->ops.Record("Open", engine->Open());
  }
  vdt::CollectionOptions copts;
  copts.name = kChurnCollection;
  copts.metric = ctx->metric;
  copts.scale.actual_rows = kChurnRows;
  copts.system.num_shards = kShards;
  copts.index.type = vdt::IndexType::kHnsw;
  copts.index.params.build_threads = static_cast<int>(ctx->options.threads);
  copts.seed = SubSeed(kDataSeed, 14);
  if (vdt::Status st = engine->CreateCollection(copts); !st.ok()) {
    Fatal("create: " + st.ToString());
  }
  vdt::net::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = std::min(kServerWorkers, ctx->options.threads);
  sopts.queue_depth = 256;
  auto server = std::make_unique<vdt::net::VdtServer>(engine.get(), sopts);
  if (vdt::Status st = server->Start(); !st.ok()) {
    Fatal("server start: " + st.ToString());
  }
  vdt::net::VdtClient writer;
  if (vdt::Status st = writer.Connect("127.0.0.1", server->port()); !st.ok()) {
    Fatal("connect: " + st.ToString());
  }

  // Read-side view of the write timeline: ids below `sent_rows` may be
  // visible; an id whose delete generation is <= the generation read before
  // a search was sent must not be returned by it.
  std::atomic<size_t> sent_rows{0};
  std::atomic<uint32_t> generation{0};
  std::vector<std::atomic<uint32_t>> deleted_at(kChurnRows);
  for (auto& d : deleted_at) d.store(UINT32_MAX, std::memory_order_relaxed);
  std::vector<uint8_t> live(kChurnRows, 0);

  std::atomic<bool> stop{false};
  LoadResult paced;
  std::thread searcher;
  const auto start_searcher = [&] {
    searcher = std::thread([&] {
      paced = RunPaced(
          &ctx->ops, server->port(), kChurnCollection, setup.queries, kChurnK,
          kChurnPacedRate, 0, 1, &stop,
          [&] { return uint64_t{generation.load(std::memory_order_acquire)}; },
          [&](size_t q, uint64_t token,
              const vdt::net::SearchReplyWire& reply) {
            ctx->checks.Expect(reply.neighbors.size() == 1,
                               "churn: one result list per query");
            if (reply.neighbors.size() != 1) return;
            const auto& got = reply.neighbors[0];
            ctx->checks.Expect(got.size() == kChurnK,
                               "churn: reply has k neighbours");
            CheckChurnList(ctx, setup, q, got,
                           sent_rows.load(std::memory_order_acquire));
            for (const vdt::Neighbor& n : got) {
              if (n.id < 0 || static_cast<size_t>(n.id) >= kChurnRows) continue;
              ctx->checks.Expect(
                  deleted_at[static_cast<size_t>(n.id)].load(
                      std::memory_order_acquire) > token,
                  "churn: acknowledged deletes never surface");
            }
          });
    });
  };

  const auto flush = [&] {
    result.wal_bytes += MeasureDisk(dir).wal;
    const double s = TimeSeconds([&] {
      Span span("vdms", "VdmsEngine::Flush");
      ctx->ops.Record("Flush", engine->Flush(kChurnCollection));
    });
    result.op_s.push_back(s);
    result.flush_call_s.Add(s);
    result.flush_s += s;
  };

  size_t next_row = 0;
  for (size_t round = 0; round < kChurnRounds; ++round) {
    for (size_t b = 0; b < kChurnBatchesPerFlush; ++b) {
      const vdt::FloatMatrix batch =
          setup.data.Slice(next_row, next_row + kChurnBatchRows);
      sent_rows.store(next_row + kChurnBatchRows, std::memory_order_release);
      vdt::Result<uint64_t> total = vdt::Status::Internal("unset");
      result.op_s.push_back(TimeSeconds([&] {
        Span span("net", "VdtClient::Insert");
        total = writer.Insert(kChurnCollection, batch);
      }));
      result.insert_us.Add(1e6 * result.op_s.back());
      ctx->ops.Record("Insert", total.status());
      if (total.ok()) {
        ctx->checks.Expect(*total == next_row + kChurnBatchRows,
                           "churn: insert acknowledges the running row total");
        std::fill(live.begin() + static_cast<ptrdiff_t>(next_row),
                  live.begin() + static_cast<ptrdiff_t>(next_row + kChurnBatchRows),
                  1);
      }
      next_row += kChurnBatchRows;
      if (!searcher.joinable()) start_searcher();
    }
    flush();

    const std::vector<int64_t>& victims = setup.deletes[round];
    size_t deleted = 0;
    result.op_s.push_back(TimeSeconds([&] {
      Span span("vdms", "VdmsEngine::Delete");
      ctx->ops.Record("Delete",
                      engine->Delete(kChurnCollection, victims, &deleted));
    }));
    result.delete_us.Add(1e6 * result.op_s.back());
    ctx->checks.Expect(deleted == victims.size(),
                       "churn: delete tombstones every live victim");
    const uint32_t gen = generation.load(std::memory_order_relaxed) + 1;
    for (int64_t id : victims) {
      deleted_at[static_cast<size_t>(id)].store(gen, std::memory_order_relaxed);
      live[static_cast<size_t>(id)] = 0;
    }
    generation.store(gen, std::memory_order_release);

    result.op_s.push_back(TimeSeconds([&] {
      Span span("vdms", "VdmsEngine::Compact");
      ctx->ops.Record("Compact", engine->Compact(kChurnCollection));
    }));
    result.compact_s += result.op_s.back();
  }
  flush();  // the last checkpoint
  stop.store(true, std::memory_order_release);
  searcher.join();
  result.search_us = paced.latency_us;

  // Quiescent checks against the benchmark's own bookkeeping.
  std::vector<int64_t> expected_live;
  for (size_t r = 0; r < kChurnRows; ++r) {
    if (live[r] != 0) expected_live.push_back(static_cast<int64_t>(r));
  }
  vdt::Result<vdt::CollectionStats> stats = engine->GetStats(kChurnCollection);
  if (!stats.ok()) Fatal("stats: " + stats.status().ToString());
  {
    const vdt::CollectionStats& s = *stats;
    size_t stored = 0, live_rows = 0, tomb = 0;
    for (const vdt::ShardStats& shard : s.shards) {
      stored += shard.stored_rows;
      live_rows += shard.live_rows;
      tomb += shard.tombstoned_rows;
    }
    ctx->checks.Expect(s.stored_rows == s.live_rows + s.tombstoned_rows,
                       "churn: stored = live + tombstoned");
    ctx->checks.Expect(stored == s.stored_rows && live_rows == s.live_rows &&
                           tomb == s.tombstoned_rows,
                       "churn: per-shard stats sum to the totals");
    ctx->checks.Expect(s.live_rows == expected_live.size() &&
                           s.total_rows == kChurnRows,
                       "churn: live rows match acknowledged writes");
    result.sealed_segments = s.num_sealed_segments;
    result.compactions = s.num_compactions;
  }

  vdt::Result<vdt::net::SearchReplyWire> fixed = [&] {
    Span span("net", "VdtClient::Search");
    return writer.Search(kChurnCollection,
                         vdt::SearchRequest::Batch(setup.queries.Slice(
                                                       0, setup.queries.rows()),
                                                   kChurnK));
  }();
  ctx->ops.Record("Search", fixed.status());
  if (!fixed.ok()) Fatal("fixed-set search failed");
  const auto truth = ExactTopK(ctx->metric, setup.data, &live, setup.queries,
                               kChurnK, ctx->options.threads);
  double recall_sum = 0;
  for (size_t q = 0; q < setup.queries.rows(); ++q) {
    const auto& got = fixed->neighbors[q];
    ctx->checks.Expect(got.size() == std::min(kChurnK, expected_live.size()),
                       "churn: fixed-set reply has min(k, live) neighbours");
    CheckChurnList(ctx, setup, q, got, kChurnRows);
    for (const vdt::Neighbor& n : got) {
      ctx->checks.Expect(n.id >= 0 && static_cast<size_t>(n.id) < kChurnRows &&
                             live[static_cast<size_t>(n.id)] != 0,
                         "churn: fixed-set neighbours are live");
    }
    recall_sum += Recall(got, truth[q]);
  }
  result.recall = recall_sum / static_cast<double>(setup.queries.rows());
  result.disk = MeasureDisk(dir);

  writer.Close();
  server->Stop();
  server.reset();
  engine.reset();

  auto reopened = std::make_unique<vdt::VdmsEngine>(eopts);
  result.recover_s = TimeSeconds([&] {
    Span span("storage", "VdmsEngine::Open");
    ctx->ops.Record("Open", reopened->Open());
  });
  ctx->checks.Expect(LiveIds(reopened.get(), kChurnCollection) == expected_live,
                     "churn: recovered live ids = inserts - deletes");
  vdt::Result<vdt::SearchResponse> after = [&] {
    Span span("vdms", "VdmsEngine::Search");
    return reopened->Search(kChurnCollection,
                            vdt::SearchRequest::Batch(
                                setup.queries.Slice(0, setup.queries.rows()),
                                kChurnK));
  }();
  ctx->ops.Record("Search", after.status());
  ctx->checks.Expect(after.ok() && SameNeighbors(after->neighbors,
                                                 fixed->neighbors),
                     "churn: results identical before teardown and after "
                     "recovery");
  reopened.reset();
  fs::remove_all(dir);
  return result;
}

}  // namespace

ChurnSetup MakeChurnSetup(RunContext* ctx) {
  ChurnSetup setup;
  const uint64_t seed = ctx->options.seed;
  setup.data = vdt::GenerateDataset(ctx->spec->profile, kChurnRows, kChurnDim,
                                    SubSeed(kDataSeed, 11));
  setup.queries = vdt::GenerateQueries(ctx->spec->profile, kChurnQueries,
                                       kChurnDim, SubSeed(seed, 12));
  vdt::Rng rng(SubSeed(seed, 13));
  std::vector<int64_t> live;
  const size_t per_round = kChurnBatchRows * kChurnBatchesPerFlush;
  for (size_t round = 0; round < kChurnRounds; ++round) {
    for (size_t r = round * per_round; r < (round + 1) * per_round; ++r) {
      live.push_back(static_cast<int64_t>(r));
    }
    const size_t n = static_cast<size_t>(kChurnDeleteShare *
                                         static_cast<double>(live.size()));
    std::vector<size_t> picks = rng.SampleWithoutReplacement(live.size(), n);
    std::sort(picks.begin(), picks.end());
    std::vector<int64_t> victims;
    for (size_t p : picks) victims.push_back(live[p]);
    for (auto it = picks.rbegin(); it != picks.rend(); ++it) {
      live.erase(live.begin() + static_cast<ptrdiff_t>(*it));
    }
    setup.deletes.push_back(std::move(victims));
  }
  return setup;
}

ChurnPhase::ChurnPhase(RunContext* ctx, const ChurnSetup* setup)
    : ctx_(ctx), setup_(setup) {}

ChurnPhase::~ChurnPhase() = default;

void ChurnPhase::Round() {
  Span phase("bench", "round.churn");
  const std::string dir =
      ctx_->options.work_dir + "/churn-" + std::to_string(cycles_.size());
  cycles_.push_back(RunCycle(ctx_, *setup_, dir));
}

void ChurnPhase::Finish() {
  RunContext* ctx = ctx_;
  const std::vector<ChurnCycle>& cycles = cycles_;
  Samples insert_us, delete_us, flush_call_s;
  std::vector<std::vector<double>> op_s;
  std::vector<double> p50_us, p90_us, p99_us, recover_s, flush_s, compact_s,
      wal_bytes;
  size_t searches = 0;
  for (const ChurnCycle& c : cycles) {
    insert_us.Append(c.insert_us);
    delete_us.Append(c.delete_us);
    flush_call_s.Append(c.flush_call_s);
    op_s.push_back(c.op_s);
    p50_us.push_back(c.search_us.Median());
    p90_us.push_back(c.search_us.Percentile(0.90));
    p99_us.push_back(c.search_us.Percentile(0.99));
    searches += c.search_us.size();
    recover_s.push_back(c.recover_s);
    flush_s.push_back(c.flush_s);
    compact_s.push_back(c.compact_s);
    wal_bytes.push_back(static_cast<double>(c.wal_bytes));
    ctx->checks.Expect(c.sealed_segments == cycles[0].sealed_segments &&
                           c.compactions == cycles[0].compactions &&
                           c.disk.total() == cycles[0].disk.total() &&
                           c.recall == cycles[0].recall,
                       "churn: every cycle ends in the same state");
  }
  const double user_bytes =
      static_cast<double>(kChurnRows * kChurnDim * sizeof(float));
  ctx->e2e.Set("insert_rows_per_s",
               static_cast<double>(kChurnRows) / SumOfBestSteps(op_s),
               "rows/s");
  ctx->e2e.Set("recover_s", Best(recover_s), "s");
  ctx->e2e.Set("disk_bytes_per_user_byte",
               static_cast<double>(cycles[0].disk.total()) / user_bytes,
               "ratio");
  ctx->e2e.Set("churn_search_recall", cycles[0].recall, "fraction");
  std::printf(
      "churn: %zu cycles of %zu rows, %zu paced searches at %.0f/s\n"
      "churn: per cycle search p50 %s us, p90 %s us, p99 %s us, recover %s "
      "s\n",
      cycles.size(), kChurnRows, searches, kChurnPacedRate,
      Join(p50_us).c_str(), Join(p90_us).c_str(), Join(p99_us).c_str(),
      Join(recover_s).c_str());

  Report& layers = ctx->layers;
  layers.Set("vdms.insert_us", insert_us.Median(), "us");
  layers.Set("vdms.delete_us", delete_us.Median(), "us");
  layers.Set("vdms.flush_s", Best(flush_s), "s");
  layers.Set("vdms.flush_s_per_call", flush_call_s.Median(), "s");
  layers.Set("vdms.compact_s", Best(compact_s), "s");
  layers.Set("vdms.sealed_segments",
             static_cast<double>(cycles[0].sealed_segments), "count");
  layers.Set("vdms.compactions", static_cast<double>(cycles[0].compactions),
             "count");
  layers.Set("storage.wal_bytes", wal_bytes[0], "bytes");
  layers.Set("storage.segment_bytes",
             static_cast<double>(cycles[0].disk.segments), "bytes");
  layers.Set("storage.open_s", Best(recover_s), "s");
}

}  // namespace perfbench
