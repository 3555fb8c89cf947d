// The benchmark's fixed input sizes, rates and thread counts. They are the
// same on both sides of any comparison; README.md explains each choice.
#ifndef VDT_PERFBENCH_SIZES_H_
#define VDT_PERFBENCH_SIZES_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Derives an independent seed for one input stream from the run's seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Each workload's base vectors and index builds come from this fixed seed,
/// so every run of a workload measures the same collections; --seed draws
/// the traffic (queries, their order, the delete sets).
inline constexpr uint64_t kDataSeed = 20240;
/// The tuning run is fully fixed (data, queries, tuner seed): its outcome
/// repeats exactly, so tune_s measures only how fast the program gets there.
inline constexpr uint64_t kTuneSeed = 42;

inline constexpr int kShards = 2;
/// Every thread and connection count of a run is min(kThreads, nproc).
inline constexpr size_t kThreads = 2;
/// Threads of the process-wide executor that VdmsEngine::Search scatters a
/// query's shards over. With one, each server worker scans a query's shards
/// itself: a search wakes no further threads, and the serve figures depend
/// less on how fast the host wakes an idle vCPU.
inline constexpr size_t kSearchThreads = 1;
/// A run repeats rounds of four serve slots (a paced burst, then a
/// closed-loop burst) with the churn cycle after the first slot and the
/// tuning run after the third, so the serve bursts sample the whole run;
/// their number is --seconds / kRoundSeconds (the nominal length of a round
/// on an idle 4-vCPU host), at least kMinRounds. Other tenants of the host
/// only ever slow a round down, so timings are the best round's.
inline constexpr double kRoundSeconds = 11.0;
inline constexpr size_t kMinRounds = 3;
/// Paced requests per burst: p98 has ten samples beyond it.
inline constexpr size_t kPacedPerBurst = 500;
inline constexpr double kPacedTail = 0.98;
/// Closed-loop throughput is the median over windows of this length.
inline constexpr double kRateWindowSeconds = 0.25;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// serve: 100k x 96 floats = 38.4 MB, far past the 2 MiB per-core L2. A
// search scans ~12k rows, so the scan outweighs the thread wake-ups and
// socket hops around it more than at 25k rows, where serve throughput of
// whole runs swung by 2.4x with the host (README.md).
inline constexpr char kServeCollection[] = "serve";
inline constexpr size_t kServeRows = 100000;
inline constexpr size_t kServeDim = 96;
inline constexpr size_t kServeQueries = 256;
inline constexpr size_t kServeK = 10;
inline constexpr size_t kServerWorkers = 2;
inline constexpr size_t kServePacedConnections = 2;
inline constexpr double kServePacedRate = 500.0;
inline constexpr double kServeClosedSeconds = 0.5;
inline constexpr size_t kServeParitySamples = 32;

// churn: per cycle, kChurnRounds x (kChurnBatchesPerFlush Insert batches,
// Flush, Delete, Compact), then a final Flush (checkpoint).
inline constexpr char kChurnCollection[] = "churn";
inline constexpr size_t kChurnDim = 48;
inline constexpr size_t kChurnBatchRows = 250;
inline constexpr size_t kChurnBatchesPerFlush = 5;
inline constexpr size_t kChurnRounds = 6;
inline constexpr size_t kChurnRows =
    kChurnBatchRows * kChurnBatchesPerFlush * kChurnRounds;
/// Share of the live rows deleted after each round.
inline constexpr double kChurnDeleteShare = 0.08;
inline constexpr size_t kChurnQueries = 64;
inline constexpr size_t kChurnK = 10;
inline constexpr double kChurnPacedRate = 600.0;

// tune: the figure benches' MakeContext scale for the profile (4000 x 48,
// 16 queries, k = 64).
inline constexpr size_t kTuneQueries = 16;
inline constexpr size_t kTuneK = 64;
inline constexpr int kTuneIterations = 14;

}  // namespace perfbench

#endif  // VDT_PERFBENCH_SIZES_H_
