//===- Common.h - Shared pieces of the end-to-end benchmark -----*- C++ -*-===//
///
/// Seeded randomness, clocks, exact quantiles over raw per-unit samples,
/// the in-memory span recorder of the traced run, process memory probes,
/// and the one-line JSON result every workload prints.
///
//===----------------------------------------------------------------------===//
#ifndef E2EBENCH_COMMON_H
#define E2EBENCH_COMMON_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

/// Directory for the daemon socket and the span dumps, relative to the
/// checkout's root (the benchmark writes nowhere else). Relative, so the
/// daemon's socket path stays within the 107 bytes a unix socket allows.
inline constexpr const char *WorkDir = ".bench_build";

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Path of the irdl_serve binary (serve-mixed only).
  std::string ServeBinary;
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) { return Lo + next() % (Hi - Lo + 1); }
  /// Uniform in [0, 1).
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t State;
};

int64_t nowNs();
inline double msSince(int64_t StartNs) { return (nowNs() - StartNs) / 1e6; }

/// Median and tail of raw samples. The tail is the highest percentile of
/// the ladder 50/90/95/99/99.5/99.9 that leaves at least ten samples
/// above it, so its value is an order statistic, never a bucket edge.
struct Quantiles {
  size_t Count = 0;
  double P50 = 0;
  double Tail = 0;
  double TailPercentile = 0;
};
Quantiles quantiles(std::vector<double> Samples);
double median(std::vector<double> Samples);
/// The \p Percentile-th percentile of \p Samples, interpolating between
/// closest ranks; infinite when it reaches an infinite sample (a failed
/// request), and infinite for no samples.
double percentile(std::vector<double> Samples, double Percentile);

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowedCpus();
/// Restricts the calling thread (and what it later creates or forks) to
/// \p Cpus; does nothing when \p Cpus is empty.
void pinTo(const std::vector<int> &Cpus);
/// Restricts the calling thread to the highest CPU it may run on.
void pinToLastCpu();

/// Keeps \p Cpus from idling while it lives: one thread per CPU spins at
/// SCHED_IDLE priority, which any other runnable thread preempts at once.
/// A waiting thread woken on an idle virtual CPU first waits for the
/// hypervisor to run that CPU again, a delay that depends on what else the
/// host runs; on a CPU kept busy the wake-up stays inside the guest.
class IdleSpinners {
public:
  explicit IdleSpinners(const std::vector<int> &Cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// Peak resident set of this process in MB (getrusage).
double selfPeakRssMb();
/// VmRSS / VmHWM of process \p Pid in MB, from /proc; 0 if unreadable.
double procRssMb(int Pid, const char *Field);

//===----------------------------------------------------------------------===//
// Span recorder (traced run only)
//===----------------------------------------------------------------------===//

/// Records spans around the benchmark's own calls into each layer: name,
/// start, end, parent span and unit id. A disabled tracer records nothing
/// and costs one branch per span. Spans nest per thread.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  class Span {
  public:
    Span(Tracer &T, const char *Name, uint64_t Unit);
    /// A span whose start lies in the past (open-loop due times).
    Span(Tracer &T, const char *Name, uint64_t Unit, int64_t StartNs);
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    void end();

  private:
    Tracer *T = nullptr;
    int Index = -1;
  };

  /// Self time per span name, in ms summed over all spans: a span's
  /// duration minus the part its direct children cover.
  std::map<std::string, double> selfMs() const;
  /// Every span as JSON objects, one per line, comma-separated.
  std::string json() const;
  /// Writes json() as a JSON array to \p Path.
  bool writeJson(const std::string &Path) const;

private:
  struct Record {
    const char *Name;
    uint64_t Unit;
    int64_t StartNs;
    int64_t EndNs;
    int Parent;
  };
  int begin(const char *Name, uint64_t Unit, int64_t StartNs);
  void finish(int Index);

  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Record> Records;
};

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

/// The benchmark's result: correctness, unit counts and named metrics.
/// print() writes it as the last line of stdout.
class Result {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Records one failed check; the message goes to stderr.
  void fail(const std::string &What);
  void attempt(uint64_t N = 1) {
    std::lock_guard<std::mutex> L(Mu);
    Attempted += N;
  }
  bool has(const std::string &Name) const;
  bool correct() const { return Failed == 0 && Attempted > 0; }
  void print() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  mutable std::mutex Mu;
};

/// Adds the per-layer metrics every traced run shares: each layer's mean
/// self time per traced unit (under "<layer>_ms") from the summed self
/// times \p SelfMs (Tracer::selfMs), the unattributed rest of the unit
/// wall time (the self time of the "unit" spans), and the overhead of
/// tracing itself.
void addLayerTimes(Result &R, std::map<std::string, double> SelfMs,
                   const std::vector<std::string> &Layers,
                   const std::vector<double> &TracedWallMs,
                   const std::vector<double> &UntracedWallMs);

/// Per-layer metric names every workload reports; a layer a workload does
/// not exercise reports 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetricNames();
/// Fills any per-layer metric not yet added with 0.
void completePerLayer(Result &R);

int runBatchLarge(const Options &O);
int runColdStart(const Options &O);
int runServeMixed(const Options &O);

} // namespace e2e

#endif // E2EBENCH_COMMON_H
