// vdt_perfbench: one run of one workload of the vdt benchmark.
//
//   vdt_perfbench --workload glove|keyword --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-dir DIR]
//
// Every workload sets up (timed as setup_s, median of kSetupRepeats
// set-ups) and then runs RoundsFor(S) rounds of the serve, churn and tune
// phases over its own generated inputs (see phases.h). The round count
// depends only on --seconds, never on how fast the rounds went, so every
// best-of figure compares the same number of repetitions. An untraced run
// prints the end-to-end metrics; a traced run records spans around every
// call into the library, adds the layer probes, and prints the per-layer
// metrics instead. The last
// stdout line is the JSON result. Exit status: 0 when every check held, 1
// when a check failed, 2 on a usage, transport or engine error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.h"
#include "harness.h"
#include "phases.h"
#include "sizes.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "vdt_perfbench: %s\nusage: vdt_perfbench --workload "
               "glove|keyword --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) Usage("--seconds > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return options;
}

/// Every thread and connection count of the run: min(kThreads, nproc), and
/// kSearchThreads for the library's global executor, which is sized from
/// VDT_THREADS on first use and so is set here, before anything touches the
/// library.
size_t SetThreadCount() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  setenv("VDT_THREADS", std::to_string(kSearchThreads).c_str(), 1);
  return std::min(kThreads, hw);
}

/// Rounds per run: --seconds over the nominal round length, at least
/// kMinRounds.
size_t RoundsFor(double seconds) {
  return std::max(kMinRounds,
                  static_cast<size_t>(std::llround(seconds / kRoundSeconds)));
}

/// Layers whose self time a traced run reports.
constexpr const char* kTracedLayers[] = {"kernels", "index", "vdms", "net",
                                         "storage", "tuner", "gp",   "mobo"};

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  ctx.options = ParseOptions(argc, argv);
  ctx.options.threads = SetThreadCount();
  ctx.spec = FindWorkload(ctx.options.workload);
  if (ctx.spec == nullptr) Usage("unknown --workload");
  ctx.metric = vdt::GetDatasetSpec(ctx.spec->profile).metric;
  vdt::SetLogLevel(vdt::LogLevel::kWarning);
  std::filesystem::create_directories(ctx.options.work_dir);
  if (ctx.options.trace) Tracer::Get().Enable();
  const size_t rounds = RoundsFor(ctx.options.seconds);
  std::printf(
      "workload %s seed %llu seconds %.1f trace %d threads %zu rounds %zu\n",
      ctx.spec->name, static_cast<unsigned long long>(ctx.options.seed),
      ctx.options.seconds, ctx.options.trace ? 1 : 0, ctx.options.threads,
      rounds);

  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<Setup>();
    {
      Span span("bench", "setup");
      fresh->serve = MakeServeSetup(&ctx);
      fresh->churn = MakeChurnSetup(&ctx);
      fresh->tune = MakeTuneSetup(&ctx);
    }
    setup_s.push_back(SecondsSince(start));
    setup = std::move(fresh);
  }
  ctx.e2e.Set("setup_s", MedianOf(setup_s), "s");

  // Interleaved rounds, so a slow spell of the host lands in one round of
  // each phase and the best round steps over it.
  ServePhase serve(&ctx, &setup->serve);
  ChurnPhase churn(&ctx, &setup->churn);
  TunePhase tune(&ctx, &setup->tune);
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    serve.Slot();
    churn.Round();
    serve.Slot();
    serve.Slot();
    tune.Round();
    serve.Slot();
  }
  std::printf("%zu rounds in %.1f s\n", rounds, SecondsSince(start));
  serve.Finish();
  churn.Finish();
  tune.Finish();
  if (ctx.options.trace) RunLayerProbes(&ctx, *setup);

  ctx.ops.Print();
  std::printf("checks: %llu evaluated, %llu violated\n",
              static_cast<unsigned long long>(ctx.checks.checked()),
              static_cast<unsigned long long>(ctx.checks.violations()));
  const bool correct = ctx.checks.all_ok();
  if (ctx.options.trace) {
    std::filesystem::create_directories(ctx.options.trace_dir);
    const std::string path = ctx.options.trace_dir + "/" + ctx.spec->name +
                             "-seed" + std::to_string(ctx.options.seed) +
                             ".spans.jsonl";
    if (!Tracer::Get().WriteJsonLines(path)) Fatal("cannot write " + path);
    std::printf("trace: %zu spans written to %s\n", Tracer::Get().size(),
                path.c_str());
    const auto self = Tracer::Get().SelfSeconds();
    for (const char* layer : kTracedLayers) {
      const auto it = self.find(layer);
      ctx.layers.Set(std::string("trace.") + layer + "_self_s",
                     it == self.end() ? 0.0 : it->second, "s");
    }
    // Traced end-to-end figures, for the tracing overhead (compare with the
    // untraced runs of the same seeds).
    ctx.e2e.PrintHuman("end-to-end metrics under tracing");
    std::printf("traced-end-to-end: %s\n", ctx.e2e.Json().c_str());
    ctx.layers.PrintHuman("per-layer metrics");
    ctx.layers.PrintResult(correct, ctx.ops.attempted(), ctx.ops.failed());
  } else {
    ctx.e2e.PrintHuman("end-to-end metrics");
    ctx.e2e.PrintResult(correct, ctx.ops.attempted(), ctx.ops.failed());
  }
  std::filesystem::remove_all(ctx.options.work_dir);
  return correct ? 0 : 1;
}
