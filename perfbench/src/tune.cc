// The tune phase: whole VDTuner runs with a fixed iteration budget.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "gp/gp.h"
#include "mobo/hypervolume.h"
#include "mobo/pareto.h"
#include "phases.h"
#include "sizes.h"
#include "tuner/evaluator.h"
#include "tuner/vdtuner.h"

namespace perfbench {

namespace {

/// Times every evaluation the tuner asks for, per index type.
class TimedEvaluator : public vdt::Evaluator {
 public:
  TimedEvaluator(vdt::Evaluator* inner, OpCounter* ops)
      : inner_(inner), ops_(ops) {}

  vdt::EvalOutcome Evaluate(const vdt::TuningConfig& config) override {
    Span span("tuner", "Evaluator::Evaluate");
    const Clock::time_point start = Clock::now();
    vdt::EvalOutcome outcome = inner_->Evaluate(config);
    const double s = SecondsSince(start);
    const size_t type = static_cast<size_t>(config.index_type);
    seconds_[type] += s;
    ++count_[type];
    total_seconds_ += s;
    // An infeasible configuration is a tuning outcome, not a failed
    // operation: the evaluator answered it.
    ops_->Attempt("Evaluate", true);
    return outcome;
  }

  double total_seconds() const { return total_seconds_; }
  double seconds(size_t type) const { return seconds_[type]; }
  size_t count(size_t type) const { return count_[type]; }

 private:
  vdt::Evaluator* inner_;
  OpCounter* ops_;
  std::array<double, vdt::kNumIndexTypes> seconds_{};
  std::array<size_t, vdt::kNumIndexTypes> count_{};
  double total_seconds_ = 0;
};

vdt::VdmsEvaluatorOptions EvaluatorOptions(const RunContext& ctx) {
  vdt::VdmsEvaluatorOptions options;
  options.profile = ctx.spec->profile;
  options.seed = SubSeed(kTuneSeed, 23);
  options.eval_threads = ctx.options.threads;
  options.build_threads = ctx.options.threads;
  return options;
}

}  // namespace

/// What one tuning run measured.
struct TuneJob {
  std::vector<double> step_s;
  double propose_s = 0;
  double evaluate_s = 0;
  std::array<double, vdt::kNumIndexTypes> type_s{};
  std::array<size_t, vdt::kNumIndexTypes> type_n{};
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  std::vector<vdt::Observation> history;
};

namespace {

TuneJob RunJob(RunContext* ctx, const TuneSetup& setup) {
  TuneJob job;
  vdt::VdmsEvaluator evaluator(&setup.data, &setup.workload,
                               EvaluatorOptions(*ctx));
  TimedEvaluator timed(&evaluator, &ctx->ops);
  const vdt::ParamSpace space;
  vdt::TunerOptions topts;
  topts.seed = kTuneSeed;
  vdt::VdtunerOptions vd;
  // The figure benches' rule for short budgets (bench_common.h MakeTuner).
  vd.abandon_window = std::clamp(kTuneIterations / 12, 3, 10);
  vdt::VdTuner tuner(&space, &timed, topts, vd);
  {
    Span span("tuner", "VdTuner::Run");
    for (int i = 0; i < kTuneIterations; ++i) {
      const Clock::time_point start = Clock::now();
      Span step("tuner", "Tuner::Step");
      tuner.Step();
      job.step_s.push_back(SecondsSince(start));
    }
  }
  job.history = tuner.history();
  for (const vdt::Observation& obs : job.history) {
    job.propose_s += obs.recommend_seconds;
  }
  job.evaluate_s = timed.total_seconds();
  for (size_t t = 0; t < vdt::kNumIndexTypes; ++t) {
    job.type_s[t] = timed.seconds(t);
    job.type_n[t] = timed.count(t);
  }
  job.cache_hits = evaluator.cache_hits();
  job.cache_misses = evaluator.cache_misses();
  return job;
}

bool SameHistory(const std::vector<vdt::Observation>& a,
                 const std::vector<vdt::Observation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].config.ToString() != b[i].config.ToString() ||
        a[i].failed != b[i].failed ||
        std::memcmp(&a[i].qps, &b[i].qps, sizeof(double)) != 0 ||
        std::memcmp(&a[i].recall, &b[i].recall, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The benchmark's own 2-D hypervolume against reference (0, 0): sweep the
/// points by first objective descending, adding each new recall step.
double SweepHypervolume(std::vector<vdt::Point2> points) {
  std::sort(points.begin(), points.end(),
            [](const vdt::Point2& a, const vdt::Point2& b) {
              return a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]);
            });
  double area = 0.0;
  double best_y = 0.0;
  for (const vdt::Point2& p : points) {
    if (p[0] <= 0.0 || p[1] <= best_y) continue;
    area += p[0] * (p[1] - best_y);
    best_y = p[1];
  }
  return area;
}

bool Dominates(const vdt::Point2& a, const vdt::Point2& b) {
  return a[0] >= b[0] && a[1] >= b[1] && (a[0] > b[0] || a[1] > b[1]);
}

}  // namespace

TuneSetup MakeTuneSetup(RunContext* ctx) {
  TuneSetup setup;
  const vdt::DatasetSpec& spec = vdt::GetDatasetSpec(ctx->spec->profile);
  setup.data = vdt::GenerateDataset(ctx->spec->profile, spec.default_rows,
                                    spec.default_dim,
                                    SubSeed(kTuneSeed, 21));
  setup.workload = vdt::MakeWorkload(ctx->spec->profile, setup.data,
                                     kTuneQueries, kTuneK,
                                     SubSeed(kTuneSeed, 22));
  return setup;
}

TunePhase::TunePhase(RunContext* ctx, const TuneSetup* setup)
    : ctx_(ctx), setup_(setup) {}

TunePhase::~TunePhase() = default;

void TunePhase::Round() {
  Span phase("bench", "round.tune");
  jobs_.push_back(RunJob(ctx_, *setup_));
}

void TunePhase::Finish() {
  RunContext* ctx = ctx_;
  const TuneSetup& setup = *setup_;
  const std::vector<TuneJob>& jobs = jobs_;
  for (const TuneJob& job : jobs) {
    ctx->checks.Expect(SameHistory(job.history, jobs[0].history),
                       "tune: repeated runs reproduce the same history");
  }
  const std::vector<vdt::Observation>& history = jobs[0].history;
  std::vector<vdt::Point2> points;
  std::vector<const vdt::Observation*> feasible;
  for (const vdt::Observation& obs : history) {
    if (obs.failed) continue;
    points.push_back({obs.qps, obs.recall});
    feasible.push_back(&obs);
  }
  const double hv = [&] {
    Span span("mobo", "Hypervolume2D");
    return vdt::Hypervolume2D(points, {0.0, 0.0});
  }();
  const double own_hv = SweepHypervolume(points);
  ctx->checks.Expect(std::abs(hv - own_hv) <= 1e-9 * std::max(1.0, own_hv),
                     "tune: hypervolume equals the benchmark's own sweep");

  const std::vector<size_t> front = vdt::NonDominatedIndices(points);
  for (size_t i : front) {
    for (size_t j : front) {
      ctx->checks.Expect(!Dominates(points[i], points[j]),
                         "tune: Pareto set is mutually non-dominated");
    }
  }
  for (size_t p = 0; p < points.size(); ++p) {
    bool covered = std::find(front.begin(), front.end(), p) != front.end();
    for (size_t i : front) covered = covered || Dominates(points[i], points[p]);
    ctx->checks.Expect(covered, "tune: every point off the front is dominated");
  }
  // Re-evaluating the front on a fresh evaluator reproduces its objectives.
  {
    vdt::VdmsEvaluator fresh(&setup.data, &setup.workload,
                             EvaluatorOptions(*ctx));
    TimedEvaluator timed(&fresh, &ctx->ops);
    for (size_t i : front) {
      const vdt::Observation& obs = *feasible[i];
      const vdt::EvalOutcome again = timed.Evaluate(obs.config);
      ctx->checks.Expect(!again.failed && again.qps == obs.qps &&
                             again.recall == obs.recall,
                         "tune: front re-evaluates to the same objectives");
    }
  }

  std::vector<std::vector<double>> steps;
  std::vector<double> wall, propose, evaluate;
  for (const TuneJob& job : jobs) {
    steps.push_back(job.step_s);
    double sum = 0;
    for (double s : job.step_s) sum += s;
    wall.push_back(sum);
    propose.push_back(job.propose_s);
    evaluate.push_back(job.evaluate_s);
  }
  // The runs are identical (checked above), so step i is the same work in
  // every run: the fastest run per step drops host stalls that hit a run.
  ctx->e2e.Set("tune_s", SumOfBestSteps(steps), "s");
  ctx->e2e.Set("tune_hv", hv, "qps.recall");
  std::printf(
      "tune: %zu runs of %d iterations, %s s each; %zu feasible of %zu "
      "evaluations, front of %zu\n",
      jobs.size(), kTuneIterations, Join(wall).c_str(), points.size(),
      history.size(), front.size());

  Report& layers = ctx->layers;
  layers.Set("tuner.propose_s", Best(propose), "s");
  layers.Set("tuner.evaluate_s", Best(evaluate), "s");
  for (size_t t = 0; t < vdt::kNumIndexTypes; ++t) {
    std::vector<double> type_s;
    for (const TuneJob& job : jobs) type_s.push_back(job.type_s[t]);
    const std::string name =
        vdt::IndexTypeName(static_cast<vdt::IndexType>(t));
    layers.Set("tuner.eval." + name + "_s", Best(type_s), "s");
    layers.Set("tuner.eval." + name + "_n",
               static_cast<double>(jobs[0].type_n[t]), "count");
  }
  layers.Set("tuner.build_cache_hits",
             static_cast<double>(jobs[0].cache_hits), "count");
  layers.Set("tuner.build_cache_misses",
             static_cast<double>(jobs[0].cache_misses), "count");

  // GP fit on the run's final training set.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const vdt::Observation& obs : history) {
    x.push_back(obs.x);
    y.push_back(obs.primary);
  }
  Samples fit_ms;
  for (int rep = 0; rep < 5; ++rep) {
    vdt::GaussianProcess gp;
    const Clock::time_point t0 = Clock::now();
    vdt::Status st = [&] {
      Span span("gp", "GaussianProcess::Fit");
      return gp.Fit(x, y);
    }();
    fit_ms.Add(1e3 * SecondsSince(t0));
    if (!st.ok()) Fatal("gp fit: " + st.ToString());
  }
  layers.Set("gp.fit_ms", fit_ms.Median(), "ms");

  constexpr int kHvReps = 2000;
  const Clock::time_point t0 = Clock::now();
  double sink = 0;
  for (int rep = 0; rep < kHvReps; ++rep) {
    sink += vdt::Hypervolume2D(points, {0.0, 0.0});
  }
  layers.Set("mobo.hypervolume_us", 1e6 * SecondsSince(t0) / kHvReps, "us");
  ctx->checks.Expect(sink > 0 || points.empty(), "tune: hypervolume positive");
}

}  // namespace perfbench
