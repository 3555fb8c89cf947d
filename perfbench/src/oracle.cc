#include "oracle.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <thread>
#include <unordered_set>

namespace perfbench {

double ExactDistance(vdt::Metric metric, const float* a, const float* b,
                     size_t dim) {
  double acc = 0.0;
  if (metric == vdt::Metric::kL2) {
    for (size_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      acc += d * d;
    }
    return acc;
  }
  // Four interleaved double partial sums: exact products, and a rounding
  // error far below the float kernels' tolerance, at a quarter of the
  // dependency chain of one running sum.
  double part[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      part[j] += static_cast<double>(a[i + j]) * static_cast<double>(b[i + j]);
    }
  }
  for (; i < dim; ++i) {
    part[0] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  acc = (part[0] + part[1]) + (part[2] + part[3]);
  return metric == vdt::Metric::kInnerProduct ? -acc : 1.0 - acc;
}

double KernelTolerance(const float* a, const float* b, size_t dim) {
  double sum_abs = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    sum_abs += std::fabs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  const double eps = FLT_EPSILON;
  return 4.0 * static_cast<double>(dim) * eps * sum_abs +
         static_cast<double>(dim) * FLT_MIN + 2.0 * eps * (1.0 + sum_abs);
}

std::vector<std::vector<ExactHit>> ExactTopK(
    vdt::Metric metric, const vdt::FloatMatrix& rows,
    const std::vector<uint8_t>* live, const vdt::FloatMatrix& queries,
    size_t k, size_t threads) {
  std::vector<std::vector<ExactHit>> out(queries.rows());
  const auto by_distance_then_id = [](const ExactHit& x, const ExactHit& y) {
    return x.distance < y.distance || (x.distance == y.distance && x.id < y.id);
  };
  const auto worker = [&](size_t begin, size_t end) {
    std::vector<ExactHit> all;
    all.reserve(rows.rows());
    for (size_t q = begin; q < end; ++q) {
      all.clear();
      for (size_t r = 0; r < rows.rows(); ++r) {
        if (live != nullptr && (*live)[r] == 0) continue;
        all.push_back({static_cast<int64_t>(r),
                       ExactDistance(metric, queries.Row(q), rows.Row(r),
                                     rows.dim())});
      }
      const size_t keep = std::min(k, all.size());
      std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                        all.end(), by_distance_then_id);
      out[q].assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep));
    }
  };
  threads = std::max<size_t>(1, std::min(threads, queries.rows()));
  std::vector<std::thread> pool;
  const size_t per = (queries.rows() + threads - 1) / std::max<size_t>(1, threads);
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = t * per;
    const size_t end = std::min(queries.rows(), begin + per);
    if (begin >= end) break;
    pool.emplace_back(worker, begin, end);
  }
  for (std::thread& th : pool) th.join();
  return out;
}

double Recall(const std::vector<vdt::Neighbor>& result,
              const std::vector<ExactHit>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<int64_t> want;
  for (const ExactHit& hit : truth) want.insert(hit.id);
  size_t found = 0;
  for (const vdt::Neighbor& n : result) found += want.count(n.id);
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

}  // namespace perfbench
