//===- Common.cpp - Shared pieces of the end-to-end benchmark -------------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sched.h>
#include <sys/resource.h>

using namespace e2e;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

int64_t e2e::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double orderStatistic(const std::vector<double> &Sorted, double Q) {
  // Linear interpolation between closest ranks (the "inclusive" method).
  double Pos = Q * (Sorted.size() - 1);
  size_t Lo = (size_t)std::floor(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  if (std::isinf(Sorted[Hi]))
    return Sorted[Hi];
  return Sorted[Lo] + (Pos - Lo) * (Sorted[Hi] - Sorted[Lo]);
}

double e2e::percentile(std::vector<double> Samples, double Percentile) {
  if (Samples.empty())
    return INFINITY;
  std::sort(Samples.begin(), Samples.end());
  return orderStatistic(Samples, Percentile / 100);
}

Quantiles e2e::quantiles(std::vector<double> Samples) {
  Quantiles Q;
  Q.Count = Samples.size();
  if (Samples.empty())
    return Q;
  std::sort(Samples.begin(), Samples.end());
  Q.P50 = orderStatistic(Samples, 0.5);
  Q.TailPercentile = 50;
  Q.Tail = Q.P50;
  for (double P : {90.0, 95.0, 99.0, 99.5, 99.9})
    if (Samples.size() * (1 - P / 100) >= 10) {
      Q.TailPercentile = P;
      Q.Tail = orderStatistic(Samples, P / 100);
    }
  return Q;
}

double e2e::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  return orderStatistic(Samples, 0.5);
}

std::vector<int> e2e::allowedCpus() {
  cpu_set_t Set;
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int I = 0; I < CPU_SETSIZE; ++I)
      if (CPU_ISSET(I, &Set))
        Cpus.push_back(I);
  return Cpus;
}

void e2e::pinTo(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void e2e::pinToLastCpu() {
  std::vector<int> Cpus = allowedCpus();
  if (!Cpus.empty())
    pinTo({Cpus.back()});
}

IdleSpinners::IdleSpinners(const std::vector<int> &Cpus) {
  for (int Cpu : Cpus)
    Threads.emplace_back([this, Cpu] {
      pinTo({Cpu});
      struct sched_param Param = {};
      sched_setscheduler(0, SCHED_IDLE, &Param);
      while (!Stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
}

IdleSpinners::~IdleSpinners() {
  Stop = true;
  for (std::thread &T : Threads)
    T.join();
}

double e2e::selfPeakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

double e2e::procRssMb(int Pid, const char *Field) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  std::string Key = std::string(Field) + ":";
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0)
      return std::stod(Line.substr(Key.size())) / 1024.0; // kB -> MB
  return 0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int> OpenSpans;
} // namespace

Tracer::Span::Span(Tracer &T, const char *Name, uint64_t Unit)
    : Span(T, Name, Unit, 0) {}

Tracer::Span::Span(Tracer &Tr, const char *Name, uint64_t Unit,
                   int64_t StartNs) {
  if (!Tr.enabled())
    return;
  T = &Tr;
  Index = Tr.begin(Name, Unit, StartNs ? StartNs : nowNs());
}

void Tracer::Span::end() {
  if (!T)
    return;
  T->finish(Index);
  T = nullptr;
}

int Tracer::begin(const char *Name, uint64_t Unit, int64_t StartNs) {
  int Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  std::lock_guard<std::mutex> L(Mu);
  Records.push_back({Name, Unit, StartNs, 0, Parent});
  int Index = (int)Records.size() - 1;
  OpenSpans.push_back(Index);
  return Index;
}

void Tracer::finish(int Index) {
  int64_t End = nowNs();
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Records[Index].EndNs = End;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<int64_t> Self(Records.size());
  for (size_t I = 0; I < Records.size(); ++I)
    Self[I] = Records[I].EndNs - Records[I].StartNs;
  for (const Record &R : Records)
    if (R.Parent >= 0)
      Self[R.Parent] -= R.EndNs - R.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Records.size(); ++I)
    Out[Records[I].Name] += Self[I] / 1e6;
  return Out;
}

std::string Tracer::json() const {
  std::lock_guard<std::mutex> L(Mu);
  std::ostringstream Out;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    Out << (I ? ",\n" : "") << "{\"id\":" << I << ",\"name\":\"" << R.Name
        << "\",\"unit\":" << R.Unit << ",\"start_ns\":" << R.StartNs
        << ",\"end_ns\":" << R.EndNs << ",\"parent\":" << R.Parent << "}";
  }
  return Out.str();
}

bool Tracer::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "[\n" << json() << "\n]\n";
  return (bool)Out;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  std::lock_guard<std::mutex> L(Mu);
  Metrics.push_back({Name, {std::isfinite(Value) ? Value : 0, Unit}});
}

void Result::fail(const std::string &What) {
  std::lock_guard<std::mutex> L(Mu);
  ++Failed;
  std::cerr << "e2ebench: check failed: " << What << "\n";
}

bool Result::has(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &M : Metrics)
    if (M.first == Name)
      return true;
  return false;
}

void Result::print() const {
  std::lock_guard<std::mutex> L(Mu);
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Failed == 0 && Attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].first
       << "\": {\"value\": " << Metrics[I].second.first << ", \"unit\": \""
       << Metrics[I].second.second << "\"}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
}

void e2e::addLayerTimes(Result &R, std::map<std::string, double> Self,
                        const std::vector<std::string> &Layers,
                        const std::vector<double> &TracedWallMs,
                        const std::vector<double> &UntracedWallMs) {
  double Units = std::max<size_t>(1, TracedWallMs.size());
  for (const std::string &Layer : Layers)
    R.add(Layer + "_ms", Self[Layer] / Units, "ms");
  double Wall = 0;
  for (double W : TracedWallMs)
    Wall += W;
  double Unattributed = Self["unit"];
  R.add("unattributed_ms", Unattributed / Units, "ms");
  R.add("unattributed_ratio", Wall > 0 ? Unattributed / Wall : 0, "ratio");
  if (Wall > 0 && Unattributed / Wall > 0.05)
    std::cerr << "e2ebench: warning: layers cover only "
              << 100 * (1 - Unattributed / Wall) << "% of unit wall time\n";
  double Untraced = median(UntracedWallMs);
  R.add("trace_overhead_ratio",
        Untraced > 0 ? median(TracedWallMs) / Untraced : 0, "ratio");
}

const std::vector<std::pair<std::string, std::string>> &
e2e::perLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"ir.parse_ms", "ms"},
      {"ir.parse_mb_per_s", "MB/s"},
      {"ir.verify_ms", "ms"},
      {"ir.verify_ops_per_s", "1/s"},
      {"support.pool_tasks", "count"},
      {"support.pool_busy_ms", "ms"},
      {"irdl.memo_hit_ratio", "ratio"},
      {"ir.rewrite_ms", "ms"},
      {"ir.rewrite_applied", "count"},
      {"ir.rewrite_hit_ratio", "ratio"},
      {"ir.dce_ms", "ms"},
      {"ir.dce_erased", "count"},
      {"ir.print_ms", "ms"},
      {"ir.print_mb_per_s", "MB/s"},
      {"ir.compare_ms", "ms"},
      {"ir.context_ms", "ms"},
      {"ir.teardown_ms", "ms"},
      {"ir.arena_bytes_live", "bytes"},
      {"irdl.load_ms", "ms"},
      {"irdl.ops_registered", "count"},
      {"bytecode.write_ms", "ms"},
      {"bytecode.read_ms", "ms"},
      {"bytecode.bytes", "bytes"},
      {"bytecode.spec_read_ms", "ms"},
      {"server.roundtrip_ms.small", "ms"},
      {"server.roundtrip_ms.repeat", "ms"},
      {"server.roundtrip_ms.medium", "ms"},
      {"server.roundtrip_ms.stream", "ms"},
      {"server.roundtrip_ms.invalid", "ms"},
      {"server.roundtrip_ms.reload", "ms"},
      {"server.reload_ms", "ms"},
      {"server.send_lag_ms", "ms"},
      {"server.daemon_rss_mb", "MB"},
      {"server.rss_growth_mb", "MB"},
      {"bench.check_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"unattributed_ratio", "ratio"},
      {"trace_overhead_ratio", "ratio"},
      {"latency_samples", "count"},
      {"latency_tail_percentile", "percent"},
  };
  return Names;
}

void e2e::completePerLayer(Result &R) {
  for (const auto &[Name, Unit] : perLayerMetricNames())
    if (!R.has(Name))
      R.add(Name, 0, Unit);
}
