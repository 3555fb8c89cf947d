#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace perfbench {

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"glove", vdt::DatasetProfile::kGlove},
      {"keyword", vdt::DatasetProfile::kKeywordMatch},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ------------------------------------------------------------------ Samples

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(p, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double WindowedRate(const std::vector<double>& at_s, double span_s,
                    double window_s) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(span_s / window_s));
  std::vector<std::vector<double>> at(windows);
  for (double t : at_s) {
    const size_t w = static_cast<size_t>(t / window_s);
    if (w < windows) at[w].push_back(t);
  }
  // Within a window: completions after the first, over the time they took.
  std::vector<double> rates;
  for (std::vector<double>& times : at) {
    if (times.size() < 2) {
      rates.push_back(static_cast<double>(times.size()) / window_s);
      continue;
    }
    const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
    rates.push_back(static_cast<double>(times.size() - 1) / (*hi - *lo));
  }
  return MedianOf(rates);
}

double Best(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double SumOfBestSteps(const std::vector<std::vector<double>>& runs) {
  double total = 0.0;
  for (size_t i = 0; i < runs[0].size(); ++i) {
    double best = runs[0][i];
    for (const auto& run : runs) best = std::min(best, run.at(i));
    total += best;
  }
  return total;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.3g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------- OpCounter

void OpCounter::Attempt(const std::string& op, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = counts_[op];
  ++entry.first;
  if (!ok) ++entry.second;
}

void OpCounter::Record(const std::string& op, const vdt::Status& status) {
  if (status.ok()) {
    Attempt(op, true);
    return;
  }
  const vdt::StatusCode code = status.code();
  if (code == vdt::StatusCode::kResourceExhausted ||
      code == vdt::StatusCode::kTimeout) {
    Attempt(op, false);
    return;
  }
  Fatal(op + " failed: " + status.ToString());
}

uint64_t OpCounter::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [op, entry] : counts_) total += entry.first;
  return total;
}

uint64_t OpCounter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [op, entry] : counts_) total += entry.second;
  return total;
}

void OpCounter::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [op, entry] : counts_) {
    std::printf("ops %-8s attempted=%llu failed=%llu\n", op.c_str(),
                static_cast<unsigned long long>(entry.first),
                static_cast<unsigned long long>(entry.second));
  }
}

void Fatal(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::exit(2);
}

// ------------------------------------------------------------------- Checks

void Checks::Expect(bool ok, const char* what) {
  checked_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  violations_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  int& printed = printed_[what];
  if (printed++ < 3) std::fprintf(stderr, "CHECK FAILED: %s\n", what);
}

// ------------------------------------------------------------------- Tracer

namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_thread{0};
thread_local uint64_t t_current_span = 0;
thread_local uint32_t t_thread_index = UINT32_MAX;

uint32_t ThreadIndex() {
  if (t_thread_index == UINT32_MAX) {
    t_thread_index = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_index;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Record& r : records_) {
    out << "{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"thread\":" << r.thread << ",\"layer\":\"" << r.layer
        << "\",\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    const auto it = child_ns.find(r.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self[r.layer] +=
        static_cast<double>(std::max<int64_t>(0, r.end_ns - r.start_ns -
                                                     children)) *
        1e-9;
  }
  return self;
}

Span::Span(const char* layer, const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  layer_ = layer;
  name_ = name;
  start_ = Clock::now();
}

Span::~Span() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  t_current_span = parent_;
  Tracer& tracer = Tracer::Get();
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                tracer.epoch_)
        .count();
  };
  tracer.Add({id_, parent_, ThreadIndex(), layer_, name_, ns(start_),
              ns(end)});
}

// ------------------------------------------------------------------- Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

void Report::PrintHuman(const char* heading) const {
  std::printf("--- %s ---\n", heading);
  for (const auto& [name, entry] : values_) {
    std::printf("%-34s %.6g %s\n", name.c_str(), entry.first,
                entry.second.c_str());
  }
}

std::string Report::Json() const {
  std::string json = "{";
  char buf[64];
  for (const auto& [name, entry] : values_) {
    if (json.size() > 1) json += ", ";
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            entry.second + "\"}";
  }
  return json + "}";
}

void Report::PrintResult(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Json().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
