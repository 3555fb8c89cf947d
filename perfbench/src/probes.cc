// Layer probes for traced runs: each layer's public functions timed from
// outside, on this run's own inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"
#include "index/topk.h"
#include "net/protocol.h"
#include "phases.h"
#include "sizes.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

/// Calls `fn` until at least `min_seconds` have passed; returns seconds per
/// call.
template <typename Fn>
double SecondsPerCall(double min_seconds, Fn&& fn) {
  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = SecondsSince(start);
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

void ProbeKernels(RunContext* ctx, const ServeSetup& serve) {
  const vdt::FloatMatrix& rows = serve.data;
  const size_t n = rows.rows();
  const size_t dim = rows.dim();
  const float* query = serve.queries.Row(0);
  std::vector<float> out(n);
  const double float_bytes = static_cast<double>(n * dim * sizeof(float));

  const double dot_s = SecondsPerCall(0.2, [&] {
    Span span("kernels", "DotBatch");
    vdt::DotBatch(query, rows.Row(0), dim, n, out.data());
  });
  for (size_t r = 0; r < 64; ++r) {
    const double exact = 1.0 - ExactDistance(vdt::Metric::kAngular, query,
                                             rows.Row(r), dim);
    ctx->checks.Expect(std::abs(out[r] - exact) <=
                           KernelTolerance(query, rows.Row(r), dim),
                       "kernels: DotBatch within tolerance of the oracle");
  }
  const double l2_s = SecondsPerCall(0.2, [&] {
    Span span("kernels", "L2Batch");
    vdt::L2Batch(query, rows.Row(0), dim, n, out.data());
  });

  // SQ8 codes of the same rows, quantized here with a per-dimension range.
  std::vector<float> vmin(dim, 1e30f), vmax(dim, -1e30f), vscale(dim);
  for (size_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < dim; ++d) {
      vmin[d] = std::min(vmin[d], rows.At(r, d));
      vmax[d] = std::max(vmax[d], rows.At(r, d));
    }
  }
  std::vector<uint8_t> codes(n * dim);
  for (size_t d = 0; d < dim; ++d) {
    vscale[d] = std::max(1e-12f, (vmax[d] - vmin[d]) / 255.0f);
  }
  for (size_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < dim; ++d) {
      const float c = std::round((rows.At(r, d) - vmin[d]) / vscale[d]);
      codes[r * dim + d] = static_cast<uint8_t>(std::clamp(c, 0.0f, 255.0f));
    }
  }
  const double sq8_s = SecondsPerCall(0.2, [&] {
    Span span("kernels", "Sq8Batch");
    vdt::Sq8Batch(ctx->metric, query, codes.data(), vmin.data(),
                  vscale.data(), dim, n, out.data());
  });

  // PQ ADC lookup: m = 8 subspaces of 256 centroids, seeded codes/table.
  constexpr size_t kM = 8, kKsub = 256;
  vdt::Rng rng(SubSeed(ctx->options.seed, 31));
  std::vector<uint16_t> pq_codes(n * kM);
  for (uint16_t& c : pq_codes) c = static_cast<uint16_t>(rng.UniformInt(uint64_t{kKsub}));
  std::vector<float> table(kM * kKsub);
  for (float& t : table) t = static_cast<float>(rng.Uniform());
  const double pq_s = SecondsPerCall(0.2, [&] {
    Span span("kernels", "PqLookupBatch");
    vdt::PqLookupBatch(table.data(), pq_codes.data(), kM, kKsub, n, 1.0f,
                       out.data());
  });

  std::printf("kernels: active backend %s (registered: %s)\n",
              vdt::kernels::Active().name,
              vdt::kernels::RegisteredBackendNames().c_str());
  ctx->layers.Set("kernels.dot_gbps", float_bytes / dot_s * 1e-9, "GB/s");
  ctx->layers.Set("kernels.l2_gbps", float_bytes / l2_s * 1e-9, "GB/s");
  ctx->layers.Set("kernels.sq8_gbps",
                  static_cast<double>(codes.size()) / sq8_s * 1e-9, "GB/s");
  ctx->layers.Set("kernels.pq_ns_per_row",
                  pq_s * 1e9 / static_cast<double>(n), "ns");
}

/// Shard scan + merge and in-process search on the served collection.
void ProbeReadPath(RunContext* ctx, const ServeSetup& serve) {
  vdt::VdmsEngine& engine = *serve.engine;
  vdt::Result<vdt::CollectionHandle> handle = engine.Open(kServeCollection);
  if (!handle.ok()) Fatal("open handle: " + handle.status().ToString());
  const auto snapshot = (*handle)->Snapshot();
  const vdt::FloatMatrix& queries = serve.queries;
  const size_t dim = queries.dim();

  Samples shard_us, merge_us, search_us, batch_us_per_query;
  constexpr int kPasses = 4;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<std::vector<vdt::Neighbor>> lists;
      for (const vdt::ShardView& shard : snapshot->shards) {
        vdt::WorkCounters counters;
        const Clock::time_point t0 = Clock::now();
        {
          Span span("index", "ShardView::Search");
          lists.push_back(shard.Search(snapshot->metric, queries.Row(q),
                                       kServeK, &counters, nullptr,
                                       &snapshot->params));
        }
        shard_us.Add(MicrosBetween(t0, Clock::now()));
      }
      const Clock::time_point t0 = Clock::now();
      std::vector<vdt::Neighbor> merged = [&] {
        Span span("index", "MergeTopK");
        return vdt::MergeTopK(std::move(lists), kServeK);
      }();
      merge_us.Add(MicrosBetween(t0, Clock::now()));

      const vdt::SearchRequest request =
          vdt::SearchRequest::Single(queries.Row(q), dim, kServeK);
      const Clock::time_point t1 = Clock::now();
      vdt::Result<vdt::SearchResponse> response = [&] {
        Span span("vdms", "VdmsEngine::Search");
        return engine.Search(kServeCollection, request);
      }();
      search_us.Add(MicrosBetween(t1, Clock::now()));
      ctx->ops.Record("Search", response.status());
      if (response.ok() && pass == 0) {
        bool same = response->neighbors.size() == 1 &&
                    response->neighbors[0].size() == merged.size();
        for (size_t i = 0; same && i < merged.size(); ++i) {
          same = response->neighbors[0][i].id == merged[i].id &&
                 response->neighbors[0][i].distance == merged[i].distance;
        }
        ctx->checks.Expect(same, "index: shard scan + MergeTopK equals search");
      }
    }
    constexpr size_t kBatch = 32;
    for (size_t b = 0; b + kBatch <= queries.rows(); b += kBatch) {
      const vdt::SearchRequest request =
          vdt::SearchRequest::Batch(queries.Slice(b, b + kBatch), kServeK);
      const Clock::time_point t0 = Clock::now();
      vdt::Result<vdt::SearchResponse> response = [&] {
        Span span("vdms", "VdmsEngine::Search");
        return engine.Search(kServeCollection, request);
      }();
      batch_us_per_query.Add(MicrosBetween(t0, Clock::now()) /
                             static_cast<double>(kBatch));
      ctx->ops.Record("Search", response.status());
    }
  }
  const double search_p50 = search_us.Median();
  ctx->layers.Set("index.shard_scan_us", shard_us.Median(), "us");
  ctx->layers.Set("index.merge_topk_us", merge_us.Median(), "us");
  ctx->layers.Set("vdms.search_us", search_p50, "us");
  ctx->layers.Set("vdms.search_p99_us",
                  search_us.Percentile(0.99), "us");
  ctx->layers.Set("vdms.batch_search_us_per_query",
                  batch_us_per_query.Median(), "us");
  ctx->layers.Set("net.server_queue_us",
                  ctx->server_search_p50_us - search_p50,
                  "us");

  // Codecs on real frames: a one-query Search request and a real reply.
  vdt::net::SearchRequestWire request_wire;
  request_wire.collection = kServeCollection;
  request_wire.k = kServeK;
  request_wire.queries = queries.Slice(0, 1);
  vdt::Result<vdt::SearchResponse> response = engine.Search(
      kServeCollection, vdt::SearchRequest::Single(queries.Row(0), dim, kServeK));
  ctx->ops.Record("Search", response.status());
  if (!response.ok()) return;
  vdt::net::SearchReplyWire reply_wire;
  reply_wire.neighbors = response->neighbors;
  reply_wire.work = response->work;
  const std::vector<uint8_t> reply_bytes =
      vdt::net::EncodeSearchReply(reply_wire);
  size_t sink = 0;
  double encode_s = 0, decode_s = 0;
  {
    Span span("net", "EncodeSearchRequest");
    encode_s = SecondsPerCall(0.05, [&] {
      sink += vdt::net::EncodeSearchRequest(request_wire).size();
    });
  }
  vdt::net::SearchReplyWire decoded;
  {
    Span span("net", "DecodeSearchReply");
    decode_s = SecondsPerCall(0.05, [&] {
      const vdt::Status st = vdt::net::DecodeSearchReply(
          reply_bytes.data(), reply_bytes.size(), &decoded);
      sink += st.ok() ? 1 : 0;
    });
  }
  ctx->checks.Expect(sink > 0 && vdt::net::EncodeSearchReply(decoded) ==
                                     reply_bytes,
                     "net: reply codec round-trips");
  ctx->layers.Set("net.encode_request_ns", encode_s * 1e9, "ns");
  ctx->layers.Set("net.decode_reply_ns", decode_s * 1e9, "ns");
}

/// WalWriter::AppendInsert with every-record sync on the churn batches.
void ProbeWal(RunContext* ctx, const ChurnSetup& churn) {
  const std::string dir = ctx->options.work_dir + "/wal-probe";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto writer = vdt::WalWriter::Open(dir + "/probe.vwal",
                                     vdt::WalSyncPolicy::kEveryRecord, nullptr);
  if (!writer.ok()) Fatal("wal open: " + writer.status().ToString());
  Samples append_us;
  for (size_t r = 0; r + kChurnBatchRows <= churn.data.rows();
       r += kChurnBatchRows) {
    const vdt::FloatMatrix batch = churn.data.Slice(r, r + kChurnBatchRows);
    const Clock::time_point t0 = Clock::now();
    vdt::Status st = [&] {
      Span span("storage", "WalWriter::AppendInsert");
      return (*writer)->AppendInsert(batch);
    }();
    append_us.Add(MicrosBetween(t0, Clock::now()));
    if (!st.ok()) Fatal("wal append: " + st.ToString());
  }
  writer->reset();
  std::filesystem::remove_all(dir);
  ctx->layers.Set("storage.wal_append_us", append_us.Median(), "us");
}

}  // namespace

void RunLayerProbes(RunContext* ctx, const Setup& setup) {
  Span phase("bench", "phase.probes");
  ProbeKernels(ctx, setup.serve);
  ProbeReadPath(ctx, setup.serve);
  ProbeWal(ctx, setup.churn);
}

}  // namespace perfbench
