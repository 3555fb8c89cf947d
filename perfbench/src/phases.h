// The three phases every workload runs, each over that workload's own
// generated inputs:
//  - serve:  read-only Searches over loopback TCP against an in-process
//            VdtServer (IVF_FLAT, 2 shards, default coalescing): a paced
//            open-loop phase, then a closed-loop phase;
//  - churn:  a durable engine (WAL fsync'd per record) serving one HNSW
//            collection while a writer streams Inserts over the wire and
//            the benchmark flushes, deletes and compacts in-process, with
//            paced Searches throughout; then teardown and Open();
//  - tune:   whole VDTuner runs with a fixed iteration budget over the
//            cost-model evaluator.
// Set-up (input generation, oracle, ingest, index build) happens before any
// phase is timed and is itself timed as setup_s.
#ifndef VDT_PERFBENCH_PHASES_H_
#define VDT_PERFBENCH_PHASES_H_

#include <memory>
#include <vector>

#include "common/float_matrix.h"
#include "harness.h"
#include "load.h"
#include "oracle.h"
#include "net/server.h"
#include "vdms/vdms.h"
#include "workload/workload.h"

namespace perfbench {

/// Everything a run shares across phases.
struct RunContext {
  Options options;
  const WorkloadSpec* spec = nullptr;
  vdt::Metric metric = vdt::Metric::kAngular;
  OpCounter ops;
  Checks checks;
  Report e2e;     // end-to-end metrics (printed by untraced runs)
  Report layers;  // per-layer metrics (printed by traced runs)
  /// Server-side p50 of paced Searches (Stats op), for net.server_queue_us.
  double server_search_p50_us = 0;
};

/// Inputs and the built, served collection of the serve phase.
struct ServeSetup {
  vdt::FloatMatrix data;
  vdt::FloatMatrix queries;
  std::vector<std::vector<ExactHit>> truth;
  std::unique_ptr<vdt::VdmsEngine> engine;
};

/// Inputs of the churn phase (the engine is created per cycle).
struct ChurnSetup {
  vdt::FloatMatrix data;     // rows inserted in order; row r gets id r
  vdt::FloatMatrix queries;  // paced and fixed-set queries
  /// Ids deleted after each round, fixed by the seed.
  std::vector<std::vector<int64_t>> deletes;
};

/// Inputs of the tune phase (the MakeContext scale of the figure benches).
struct TuneSetup {
  vdt::FloatMatrix data;
  vdt::Workload workload;
};

struct Setup {
  ServeSetup serve;
  ChurnSetup churn;
  TuneSetup tune;
};

/// Per-phase set-up from the run's seed. The serve set-up also computes the
/// oracle and ingests + builds the served collection.
ServeSetup MakeServeSetup(RunContext* ctx);
ChurnSetup MakeChurnSetup(RunContext* ctx);
TuneSetup MakeTuneSetup(RunContext* ctx);

struct QueryRecall;

/// The serve phase. The constructor starts the servers; each Slot() sends
/// a burst of kPacedPerBurst paced Searches and then runs
/// kServeClosedSeconds of closed-loop load; Finish() checks, stops the
/// servers and reports the best burst of each kind.
class ServePhase {
 public:
  ServePhase(RunContext* ctx, ServeSetup* setup);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;
  void Slot();
  void Finish();

 private:
  /// Checks a served reply and records its recall.
  ReplyCheck Check();
  void Paced();
  void Closed();

  RunContext* ctx_;
  ServeSetup* setup_;
  std::unique_ptr<QueryRecall> recall_;
  std::unique_ptr<vdt::net::VdtServer> paced_server_;
  std::unique_ptr<vdt::net::VdtServer> closed_server_;
  std::vector<double> paced_p50_us_, paced_p90_us_, paced_tail_us_, qps_;
  Samples service_us_, lateness_us_;
};

struct ChurnCycle;

/// The churn phase: each Round() runs one whole cycle (fresh durable
/// engine, write timeline beside paced Searches, checks, teardown, Open());
/// Finish() reports the best cycle, per operation for the write timeline.
class ChurnPhase {
 public:
  ChurnPhase(RunContext* ctx, const ChurnSetup* setup);
  ~ChurnPhase();
  ChurnPhase(const ChurnPhase&) = delete;
  ChurnPhase& operator=(const ChurnPhase&) = delete;
  void Round();
  void Finish();

 private:
  RunContext* ctx_;
  const ChurnSetup* setup_;
  std::vector<ChurnCycle> cycles_;
};

struct TuneJob;

/// The tune phase: each Round() runs one whole tuning run on a fresh
/// evaluator; Finish() checks the runs and reports tune_s as the sum over
/// iterations of the fastest run's step time.
class TunePhase {
 public:
  TunePhase(RunContext* ctx, const TuneSetup* setup);
  ~TunePhase();
  TunePhase(const TunePhase&) = delete;
  TunePhase& operator=(const TunePhase&) = delete;
  void Round();
  void Finish();

 private:
  RunContext* ctx_;
  const TuneSetup* setup_;
  std::vector<TuneJob> jobs_;
};

/// Traced runs only: times each layer's public functions on this run's own
/// inputs (kernels, shard scan + merge, in-process search, codecs, WAL).
void RunLayerProbes(RunContext* ctx, const Setup& setup);

}  // namespace perfbench

#endif  // VDT_PERFBENCH_PHASES_H_
