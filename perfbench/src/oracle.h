// The benchmark's own exact reference: double-precision brute-force top-k
// written here in plain loops. It deliberately uses neither the library's
// BuildGroundTruth nor its SIMD distance kernels, so recall and the result
// checks do not trust the code they measure.
#ifndef VDT_PERFBENCH_ORACLE_H_
#define VDT_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/float_matrix.h"
#include "index/distance.h"
#include "index/index.h"

namespace perfbench {

struct ExactHit {
  int64_t id = -1;
  double distance = 0.0;
};

/// Distance under `metric`, accumulated sequentially in double.
double ExactDistance(vdt::Metric metric, const float* a, const float* b,
                     size_t dim);

/// The bound a float kernel distance may differ from ExactDistance by:
/// 4 * dim * eps * sum|a_i * b_i| + dim * FLT_MIN (the kernels' documented
/// tolerance, index/kernels/kernels.h) plus two roundings of the metric
/// transform (1 - x, -x).
double KernelTolerance(const float* a, const float* b, size_t dim);

/// Exact top-k of every query over rows[r] with live[r] != 0 (all rows when
/// `live` is null); row r has id r. Ordered by (distance, id). Runs on
/// `threads` threads.
std::vector<std::vector<ExactHit>> ExactTopK(
    vdt::Metric metric, const vdt::FloatMatrix& rows,
    const std::vector<uint8_t>* live, const vdt::FloatMatrix& queries,
    size_t k, size_t threads);

/// |result ∩ truth| / |truth| over ids.
double Recall(const std::vector<vdt::Neighbor>& result,
              const std::vector<ExactHit>& truth);

}  // namespace perfbench

#endif  // VDT_PERFBENCH_ORACLE_H_
