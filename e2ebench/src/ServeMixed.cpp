//===- ServeMixed.cpp - The serve-mixed workload --------------------------===//
///
/// Open-loop traffic against an irdl_serve child process (--mt=1, the five
/// bundled dialects loaded over LOAD_DIALECT at setup). One generator with
/// four connections sends a seeded mix of requests on a fixed schedule;
/// each request is timed from when it was due, so a stall also delays the
/// requests queued behind it, and the generator's own lateness is
/// reported. Latency is measured at a fixed low and high rate, short
/// slices of a closed loop over the four connections measure the daemon's
/// capacity, and a stepped search from below that capacity finds the
/// highest rate whose tail stays under the limit with no growing backlog;
/// a failed request counts as missing the limit.
/// Per-request overhead dominates: framing, epoch pinning, and parse and
/// verify of tiny inputs, beside a periodic RELOAD_DIALECT write.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Generator.h"

#include "server/Client.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <fcntl.h>
#include <iostream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace e2e;
using namespace irdl;
using namespace irdl::serve;

namespace {

constexpr unsigned Connections = 4;
constexpr unsigned SetupRepeats = 9;
/// Fixed rates (requests per second). They are assumptions, not measured
/// traffic. `low` is a light load under which requests rarely queue.
/// `high` is a third of the highest sustainable rate measured when the
/// benchmark was added (max_rate_per_s, median 6083/s over ten runs on a
/// 4-vCPU machine), so the daemon is busy a third of the time and requests
/// queue behind one another. Nearer the capacity, queueing delay grows
/// steeply with the machine's speed of the moment: at 4000/s and 3000/s a
/// slower spell of that shared machine multiplied the high-rate p50 by up
/// to 18 and 15 between runs of the same code.
constexpr double LowRate = 250;
constexpr double HighRate = 2000;
/// The capacity measured when the benchmark was added; it only sizes the
/// generated request sequence.
constexpr double NominalCapacity = 6000;
/// The tail limit of the search.
constexpr double TailLimitMs = 50;
constexpr double TailLimitPercentile = 99;
/// The fixed rates are measured in windows that alternate low and high,
/// so a slow spell of the machine does not fall on one rate alone. A
/// window holds few enough requests that its tail is its p95 (the highest
/// percentile with ten samples above it), and a rate's tail is the median
/// of its windows' tails. Every pair of windows is preceded by a slice of
/// the closed loop that measures the capacity, so the capacity, too, is
/// spread over the run. Windows and slices take about 65% of the run, the
/// search the rest.
constexpr size_t LowWindow = 250, HighWindow = 900;
constexpr double CapacitySlice = 0.15;
constexpr double FixedShare = 0.65;
constexpr double StepSeconds = 1.5;
/// The search starts at this share of the measured capacity and climbs by
/// SearchClimb per passing step; near the capacity, fine steps keep the
/// result from jumping between the points of a coarse grid.
constexpr double SearchStart = 0.8, SearchClimb = 1.1;
/// Abandon a search step once the generator runs this late.
constexpr double AbortLagMs = 200;
/// Requests sent once at setup; the timed phases start after them.
constexpr size_t WarmupRequests = 200;

enum Kind { Small, Repeat, Medium, Stream, Invalid, Reload, NumKinds };
const char *KindNames[NumKinds] = {"small",  "repeat",  "medium",
                                   "stream", "invalid", "reload"};
/// The mix of verification requests per block of 100, shuffled per block
/// by the seed. Reloads are not part of it: they are periodic in time.
/// The shares are assumptions, not measured traffic (README.md gives the
/// reason for each): Listing-1-sized requests dominate, and medium and
/// stream requests are the slow tenth.
constexpr unsigned Mix[NumKinds] = {71, 12, 8, 2, 7, 0};
/// Every phase sends a RELOAD_DIALECT in place of one request per period
/// (and every fixed-rate window at least one), so each run rebuilds about
/// the same number of epochs.
constexpr double ReloadPeriodS = 0.5;

struct Request {
  Kind K = Small;
  /// VERIFY / RELOAD_DIALECT payload (named), or the stream's name.
  std::string Payload;
  /// VERIFY_CHUNK payloads of a stream.
  std::vector<std::string> Chunks;
  /// Expected status and diagnostics of the final response.
  FrameStatus Status = FrameStatus::Ok;
  std::string Diags;
};

struct Sample {
  double LatencyMs = 0; // from due time to the last response
  double RoundtripMs = 0;
  double LagMs = 0;
  Kind K = Small;
  bool Ok = true;
  bool Sent = false;
};

/// The daemon as a child process: started with a socket path under the
/// work directory, stopped by SHUTDOWN (or SIGKILL) and always reaped.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Binary, const std::string &Socket,
             const std::vector<int> &Cpus) {
    SocketPath = Socket;
    ::unlink(Socket.c_str());
    std::string SocketArg = "--socket=" + Socket;
    Pid = ::fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      // Child: die with the parent, keep stdout clean, exec the daemon.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      pinTo(Cpus);
      int Null = ::open("/dev/null", O_RDWR);
      ::dup2(Null, 0);
      ::dup2(Null, 1);
      ::dup2(Null, 2);
      const char *Argv[] = {Binary.c_str(), SocketArg.c_str(), "--mt=1",
                            nullptr};
      ::execv(Binary.c_str(), const_cast<char *const *>(Argv));
      ::_exit(127);
    }
    int64_t Deadline = nowNs() + 10'000'000'000;
    std::string Error;
    while (nowNs() < Deadline) {
      ServeClient Probe;
      if (succeeded(Probe.connect(Socket, Error)))
        return true;
      int Status;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ServeClient C;
    std::string Error;
    ResponseFrame R;
    if (succeeded(C.connect(SocketPath, Error)))
      (void)C.shutdown(R, Error);
    C.disconnect();
    int64_t Deadline = nowNs() + 5'000'000'000;
    int Status;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (nowNs() > Deadline) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Pid = -1;
    ::unlink(SocketPath.c_str());
  }

  int pid() const { return Pid; }
  const std::string &socket() const { return SocketPath; }

private:
  int Pid = -1;
  std::string SocketPath;
};

/// Sends \p Req and checks the answer. Returns false with \p Why when the
/// status or diagnostics differ from the known answer or the call fails.
bool send(ServeClient &C, const Request &Req, std::string &Why) {
  ResponseFrame R;
  std::string Error;
  auto Call = [&](FrameType T, std::string_view Payload) {
    if (succeeded(C.call(T, Payload, R, Error)))
      return true;
    Why = "connection error: " + Error;
    return false;
  };
  switch (Req.K) {
  case Reload:
    if (!Call(FrameType::ReloadDialect, Req.Payload))
      return false;
    break;
  case Stream:
    if (!Call(FrameType::VerifyBegin, Req.Payload))
      return false;
    for (const std::string &Chunk : Req.Chunks)
      if (!Call(FrameType::VerifyChunk, Chunk) || R.Status != FrameStatus::Ok) {
        Why = Why.empty() ? "stream chunk refused: " + R.Payload : Why;
        return false;
      }
    if (!Call(FrameType::VerifyEnd, ""))
      return false;
    break;
  default:
    if (!Call(FrameType::Verify, Req.Payload))
      return false;
    break;
  }
  if (R.Status != Req.Status) {
    Why = std::string(KindNames[Req.K]) + " request answered status " +
          std::to_string((int)R.Status) + ":\n" + R.Payload;
    return false;
  }
  if (Req.K != Reload && R.Payload != Req.Diags) {
    Why = std::string(KindNames[Req.K]) +
          " request answered other diagnostics:\n" + R.Payload +
          "expected:\n" + Req.Diags;
    return false;
  }
  return true;
}

/// The seeded request sequence and its known answers, built and checked
/// by the oracle before anything is timed.
class Traffic {
public:
  Traffic(uint64_t Seed, size_t Count) : R(Seed) {
    Oracle Check(/*WithCorpus=*/false, "");
    for (unsigned I = 0; I < 64; ++I) {
      ModuleCase C = generateModule(R, "medium" + std::to_string(I) + ".mlir",
                                    20000, 4, Mutation::None);
      verified(Check, C);
      Mediums.push_back(named(C.Name, C.Text, FrameStatus::Ok, ""));
      Mediums.back().K = Medium;
    }
    for (unsigned I = 0; I < 16; ++I) {
      Request S;
      S.K = Stream;
      S.Payload = encodeNamedPayload("stream" + std::to_string(I), "");
      for (unsigned Chunk = 0; Chunk < 4; ++Chunk) {
        ModuleCase C = generateModule(R, "chunk", 4000, 2, Mutation::None);
        verified(Check, C);
        S.Chunks.push_back(C.Text);
      }
      Streams.push_back(std::move(S));
    }
    for (unsigned I = 0; I < 32; ++I) {
      ModuleCase C = generateSmall(R, "invalid" + std::to_string(I) + ".mlir",
                                   (Mutation)(1 + I % 3));
      verified(Check, C);
      Invalids.push_back(
          named(C.Name, C.Text, FrameStatus::Fail, C.ExpectedDiags));
      Invalids.back().K = Invalid;
    }
    // Each reload changes a trailing comment, so the daemon rebuilds its
    // epoch rather than deduplicating the reload by content hash.
    for (const auto &[Name, Text] : bundledDialects())
      if (Name == "math.irdl")
        for (unsigned I = 0; I < 64; ++I) {
          Request Req;
          Req.K = Reload;
          Req.Payload = encodeNamedPayload(
              Name, Text + "\n// reload " + std::to_string(I) + "\n");
          Reloads.push_back(std::move(Req));
        }

    Sequence.reserve(Count);
    std::vector<size_t> SmallIndices;
    while (Sequence.size() < Count) {
      std::vector<Kind> Block;
      for (unsigned K = 0; K < NumKinds; ++K)
        Block.insert(Block.end(), Mix[K], (Kind)K);
      for (size_t I = Block.size() - 1; I > 0; --I)
        std::swap(Block[I], Block[R.range(0, I)]);
      for (Kind K : Block)
        Sequence.push_back(make(K, Check, SmallIndices));
    }
  }

  const Request &operator[](size_t I) const {
    return Sequence[I % Sequence.size()];
  }
  /// The next reload; consecutive ones always differ.
  const Request &nextReload() const {
    return Reloads[NextReload.fetch_add(1) % Reloads.size()];
  }

private:
  static Request named(const std::string &Name, const std::string &Text,
                       FrameStatus Status, std::string Diags) {
    Request Req;
    Req.Payload = encodeNamedPayload(Name, Text);
    Req.Status = Status;
    Req.Diags = std::move(Diags);
    return Req;
  }
  static void verified(Oracle &Check, ModuleCase &C) {
    std::string Why;
    if (!Check.check(C, /*ServeStyle=*/true, Why)) {
      std::cerr << "e2ebench: generator/oracle disagreement: " << Why << "\n";
      std::exit(2);
    }
  }

  Request make(Kind K, Oracle &Check, std::vector<size_t> &SmallIndices) {
    switch (K) {
    case Small: {
      // Every small request is new text with fresh float constants.
      ModuleCase C = generateSmall(
          R, "small" + std::to_string(Sequence.size()) + ".mlir",
          Mutation::None);
      verified(Check, C);
      SmallIndices.push_back(Sequence.size());
      Request Req = named(C.Name, C.Text, FrameStatus::Ok, "");
      return Req;
    }
    case Repeat: {
      if (SmallIndices.empty())
        return make(Small, Check, SmallIndices);
      // An exact repeat of one of the last 64 small requests.
      size_t Back = std::min<size_t>(SmallIndices.size(), 64);
      Request Req =
          Sequence[SmallIndices[SmallIndices.size() - 1 - R.range(0, Back - 1)]];
      Req.K = Repeat;
      return Req;
    }
    case Medium:
      return Mediums[R.range(0, Mediums.size() - 1)];
    case Stream:
      return Streams[R.range(0, Streams.size() - 1)];
    default:
      return Invalids[R.range(0, Invalids.size() - 1)];
    }
  }

  Rng R;
  std::vector<Request> Mediums, Streams, Invalids, Reloads, Sequence;
  mutable std::atomic<size_t> NextReload{0};
};

/// Four persistent connections and the open-loop sender over them.
class LoadGenerator {
public:
  LoadGenerator(const Traffic &Tr, Tracer &T) : Tr(Tr), T(T) {}

  bool connect(const std::string &Socket) {
    Clients.clear();
    Clients.resize(Connections);
    std::string Error;
    for (ServeClient &C : Clients)
      if (failed(C.connect(Socket, Error))) {
        std::cerr << "e2ebench: cannot connect: " << Error << "\n";
        return false;
      }
    return true;
  }

  /// Sends Tr[First, First + Count) at \p Rate per second, request i due
  /// at start + i / Rate. With \p AbortLag, stops sending once the
  /// generator is that late (the step has failed). \p ElapsedS is the
  /// time from the first due time to the last response.
  std::vector<Sample> run(size_t First, size_t Count, double Rate,
                          bool Traced, double AbortLag, bool &Aborted,
                          double &ElapsedS, std::vector<std::string> &Errors) {
    // At the fixed rates a worker spins through the last stretch before a
    // due time, so its own wake-up delay does not count as lateness; the
    // search's rates are too high to spare the processor.
    int64_t SpinNs = AbortLag > 0 ? 0 : 100'000;
    std::vector<Sample> Samples(Count);
    std::atomic<size_t> Next{0};
    std::atomic<bool> Abort{false};
    std::mutex ErrMu;
    int64_t Start = nowNs() + 1'000'000;
    size_t ReloadEvery = std::clamp<size_t>((size_t)(Rate * ReloadPeriodS),
                                            1, Count);
    auto Worker = [&](ServeClient &C) {
      while (!Abort.load(std::memory_order_relaxed)) {
        size_t I = Next.fetch_add(1);
        if (I >= Count)
          return;
        int64_t Due = Start + (int64_t)(I * 1e9 / Rate);
        int64_t Now = nowNs();
        if (Now < Due - SpinNs)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(Due - SpinNs - Now));
        while (nowNs() < Due)
          ;
        const Request &Req = I % ReloadEvery == ReloadEvery / 2
                                 ? Tr.nextReload()
                                 : Tr[First + I];
        Tracer Off(false);
        Tracer &Tt = Traced && I % 2 == 1 ? T : Off;
        Tracer::Span Unit(Tt, "unit", First + I, Due);
        {
          Tracer::Span Lag(Tt, "server.send_lag", First + I, Due);
        }
        int64_t SendAt = nowNs();
        std::string Why;
        bool Ok;
        {
          Tracer::Span Trip(Tt, TraceNames[Req.K], First + I, SendAt);
          Ok = send(C, Req, Why);
        }
        int64_t End = nowNs();
        Unit.end();
        Sample &S = Samples[I];
        S.K = Req.K;
        S.Ok = Ok;
        S.LagMs = (SendAt - Due) / 1e6;
        S.RoundtripMs = (End - SendAt) / 1e6;
        S.LatencyMs = (End - Due) / 1e6;
        S.Sent = true;
        if (!Ok) {
          std::lock_guard<std::mutex> L(ErrMu);
          Errors.push_back(Why);
          // A broken connection cannot carry later requests.
          if (Why.rfind("connection error", 0) == 0)
            return;
        }
        if (AbortLag > 0 && S.LagMs > AbortLag)
          Abort = true;
      }
    };
    std::vector<std::thread> Threads;
    for (ServeClient &C : Clients)
      Threads.emplace_back(Worker, std::ref(C));
    for (std::thread &Th : Threads)
      Th.join();
    ElapsedS = (nowNs() - Start) / 1e9;
    Aborted = Abort.load();
    std::vector<Sample> Done;
    for (Sample &S : Samples)
      if (S.Sent || !Aborted) {
        S.Ok = S.Ok && S.Sent; // unsent: the connection broke before it
        Done.push_back(S);
      }
    return Done;
  }

  /// Closed loop: every connection sends verification requests
  /// Tr[First, ...) back to back for \p Seconds. Returns how many were
  /// sent, and the time from the start to the last answer in \p ElapsedS;
  /// every answer is checked.
  size_t saturate(size_t First, double Seconds, double &ElapsedS,
                  std::vector<std::string> &Errors) {
    std::atomic<size_t> Next{0};
    std::mutex ErrMu;
    int64_t Start = nowNs();
    int64_t End = Start + (int64_t)(Seconds * 1e9);
    auto Worker = [&](ServeClient &C) {
      while (nowNs() < End) {
        std::string Why;
        if (!send(C, Tr[First + Next++], Why)) {
          std::lock_guard<std::mutex> L(ErrMu);
          Errors.push_back(Why);
          return;
        }
      }
    };
    std::vector<std::thread> Threads;
    for (ServeClient &C : Clients)
      Threads.emplace_back(Worker, std::ref(C));
    for (std::thread &Th : Threads)
      Th.join();
    ElapsedS = (nowNs() - Start) / 1e9;
    return Next.load();
  }

private:
  static constexpr const char *TraceNames[NumKinds] = {
      "server.roundtrip.small",  "server.roundtrip.repeat",
      "server.roundtrip.medium", "server.roundtrip.stream",
      "server.roundtrip.invalid", "server.roundtrip.reload"};
  const Traffic &Tr;
  Tracer &T;
  std::vector<ServeClient> Clients;
};

/// Latencies of the verification requests; a failed one never meets a
/// limit. RELOAD_DIALECT is the write beside them: it is checked and
/// reported per kind, but its rebuild time is not a verification latency.
std::vector<double> latencies(const std::vector<Sample> &Samples) {
  std::vector<double> Out;
  for (const Sample &S : Samples)
    if (S.K != Reload)
      Out.push_back(S.Ok ? S.LatencyMs : INFINITY);
  return Out;
}

/// Reads one series from a Prometheus exposition; 0 when absent.
double series(const std::string &Text, const std::string &Name) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Name + " ", 0) == 0)
      return std::stod(Line.substr(Name.size() + 1));
  return 0;
}

std::string daemonMetrics(const std::string &Socket) {
  ServeClient C;
  std::string Error;
  ResponseFrame R;
  if (failed(C.connect(Socket, Error)) || failed(C.metrics(R, Error)))
    return "";
  return R.Payload;
}

/// Spawns the daemon on \p Cpus, loads the bundled dialects over
/// LOAD_DIALECT and warms it up with a few requests of every kind.
bool setUp(Daemon &D, const Options &O, const Traffic &Tr,
           const std::vector<int> &Cpus, std::vector<std::string> &Errors) {
  std::string Socket =
      std::string(WorkDir) + "/serve-" + std::to_string(::getpid()) + ".sock";
  if (!D.start(O.ServeBinary, Socket, Cpus)) {
    Errors.push_back("cannot start " + O.ServeBinary);
    return false;
  }
  ServeClient C;
  std::string Error;
  if (failed(C.connect(Socket, Error))) {
    Errors.push_back("cannot connect: " + Error);
    return false;
  }
  for (const auto &[Name, Text] : bundledDialects()) {
    ResponseFrame R;
    if (failed(C.loadDialect(Name, Text, R, Error)) ||
        R.Status != FrameStatus::Ok) {
      Errors.push_back("LOAD_DIALECT " + Name + " failed: " + Error +
                       R.Payload);
      return false;
    }
  }
  for (size_t I = 0; I < WarmupRequests; ++I) {
    std::string Why;
    if (!send(C, Tr[I], Why)) {
      Errors.push_back("warm-up: " + Why);
      return false;
    }
  }
  return true;
}

} // namespace

int e2e::runServeMixed(const Options &O) {
  Result Res;
  double WindowSeconds =
      CapacitySlice + LowWindow / LowRate + HighWindow / HighRate;
  unsigned Windows =
      std::max(1u, (unsigned)(FixedShare * O.Seconds / WindowSeconds));
  // Enough distinct requests for the windows, and for the capacity slices
  // and the search at up to 1.5x the nominal capacity; beyond that the
  // sequence wraps around.
  double FastSeconds = O.Seconds - Windows * (WindowSeconds - CapacitySlice);
  Traffic Tr(O.Seed, WarmupRequests + Windows * (LowWindow + HighWindow) +
                         (size_t)(1.5 * NominalCapacity * FastSeconds));

  // The daemon and the generator each get half of the CPUs, so neither
  // preempts the other and their threads do not migrate between them.
  std::vector<int> Cpus = allowedCpus(), DaemonCpus;
  IdleSpinners Awake(Cpus);
  if (Cpus.size() >= 2) {
    DaemonCpus.assign(Cpus.begin() + Cpus.size() / 2, Cpus.end());
    Cpus.resize(Cpus.size() / 2);
    pinTo(Cpus);
  }

  std::vector<std::string> Errors;
  std::vector<double> SetupS;
  auto D = std::make_unique<Daemon>();
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Rep)
      D = std::make_unique<Daemon>();
    int64_t T0 = nowNs();
    if (!setUp(*D, O, Tr, DaemonCpus, Errors)) {
      for (const std::string &E : Errors)
        Res.fail(E);
      Res.print();
      return 1;
    }
    SetupS.push_back(msSince(T0) / 1e3);
  }
  int Pid = D->pid();
  double RssAfterWarmup = procRssMb(Pid, "VmRSS");

  // Sample the daemon's resident set throughout the run.
  std::atomic<bool> Sampling{true};
  std::vector<double> RssSamples;
  std::thread Sampler([&] {
    while (Sampling.load()) {
      RssSamples.push_back(procRssMb(Pid, "VmRSS"));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  Tracer T(O.Trace);
  LoadGenerator Gen(Tr, T);
  std::string MetricsBefore = O.Trace ? daemonMetrics(D->socket()) : "";
  bool Aborted = false;
  double ElapsedS = 0;
  size_t Cursor = WarmupRequests;
  auto Phase = [&](size_t Count, double Rate, bool Traced, double AbortLag) {
    std::vector<std::string> PhaseErrors;
    std::vector<Sample> S;
    if (Gen.connect(D->socket()))
      S = Gen.run(Cursor, Count, Rate, Traced, AbortLag, Aborted, ElapsedS,
                  PhaseErrors);
    else
      PhaseErrors.push_back("cannot connect to the daemon");
    Cursor += Count;
    Res.attempt(S.size());
    Errors.insert(Errors.end(), PhaseErrors.begin(), PhaseErrors.end());
    return S;
  };

  // The capacity: completions per second of a closed loop over the
  // connections, which the daemon alone limits.
  std::vector<double> SliceRates;
  auto CapacitySliceRun = [&] {
    std::vector<std::string> SliceErrors;
    double ElapsedS = 0;
    size_t Sent = 0;
    if (Gen.connect(D->socket()))
      Sent = Gen.saturate(Cursor, CapacitySlice, ElapsedS, SliceErrors);
    else
      SliceErrors.push_back("cannot connect to the daemon");
    Cursor += Sent;
    Res.attempt(Sent);
    Errors.insert(Errors.end(), SliceErrors.begin(), SliceErrors.end());
    if (ElapsedS > 0)
      SliceRates.push_back((Sent - SliceErrors.size()) / ElapsedS);
  };

  std::vector<Sample> Low, High;
  std::vector<double> LowTails, HighTails;
  double TailPercentile = 0;
  int64_t RunEnd = nowNs() + (int64_t)(O.Seconds * 1e9);
  for (unsigned W = 0; W < Windows; ++W) {
    CapacitySliceRun();
    std::vector<Sample> L = Phase(LowWindow, LowRate, O.Trace, 0);
    Quantiles QW = quantiles(latencies(L));
    LowTails.push_back(QW.Tail);
    TailPercentile = QW.TailPercentile;
    Low.insert(Low.end(), L.begin(), L.end());
    std::vector<Sample> H = Phase(HighWindow, HighRate, false, 0);
    HighTails.push_back(quantiles(latencies(H)).Tail);
    High.insert(High.end(), H.begin(), H.end());
  }
  // The median slice, so that one slice that met a slow spell of the
  // machine does not move it.
  double Capacity = median(SliceRates);
  // Memory over the fixed-rate phases, whose reload count is fixed (the
  // search's is not).
  double RssGrowth = procRssMb(Pid, "VmRSS") - RssAfterWarmup;
  double PeakRss = procRssMb(Pid, "VmHWM");

  // Stepped search from below the capacity: raise the rate while steps
  // pass, then bisect (geometrically) between the last pass and the first
  // failure.
  double Pass = 0, PassAchieved = 0, Fail = 0;
  double Rate = SearchStart * Capacity;
  bool Retried = false;
  while (nowNs() + StepSeconds * 1e9 <= RunEnd) {
    size_t Count = (size_t)(Rate * StepSeconds);
    std::vector<Sample> Step = Phase(Count, Rate, false, AbortLagMs);
    double Tail = percentile(latencies(Step), TailLimitPercentile);
    // A growing backlog makes the generator ever later: compare the
    // median lateness of the step's last quarter with the limit.
    std::vector<double> LateLags;
    for (size_t I = Step.size() - Step.size() / 4; I < Step.size(); ++I)
      LateLags.push_back(Step[I].LagMs);
    double LastLag = median(LateLags);
    bool Ok = !Aborted && Tail <= TailLimitMs && LastLag <= TailLimitMs / 2;
    if (Ok) {
      Pass = Rate;
      PassAchieved = Step.size() / ElapsedS;
    } else if (!Retried) {
      // One slow spell of the machine should not end the climb: a rate
      // fails only when two steps at it fail.
      Retried = true;
      continue;
    } else {
      Fail = Rate;
    }
    Retried = false;
    Rate = Fail == 0 ? Rate * SearchClimb
                     : std::sqrt((Pass > 0 ? Pass : Fail / 2) * Fail);
  }
  Sampling = false;
  Sampler.join();
  std::string MetricsAfter = O.Trace ? daemonMetrics(D->socket()) : "";
  D.reset();

  // Overload may make a search step late, never wrong: every wrong or
  // refused answer, in any phase, is a failure.
  for (const std::string &E : Errors)
    Res.fail(E);

  // Pooled medians; tails per window (see LowWindow).
  Quantiles QL = quantiles(latencies(Low));
  Quantiles QH = quantiles(latencies(High));
  if (!O.Trace) {
    std::cerr << "e2ebench: serve-mixed " << Windows << " windows of "
              << LowWindow << " requests at " << LowRate << "/s and "
              << HighWindow << " at " << HighRate << "/s (p"
              << TailPercentile << " tails), capacity " << Capacity
              << "/s, max rate " << Pass << "/s (first failing " << Fail
              << "/s)\n";
    Res.add("setup_s", median(SetupS), "s");
    Res.add("latency_p50_ms", QL.P50, "ms");
    Res.add("latency_tail_ms", median(LowTails), "ms");
    Res.add("throughput_per_s", Capacity, "1/s");
    Res.add("latency_p50_ms_high", QH.P50, "ms");
    Res.add("latency_tail_ms_high", median(HighTails), "ms");
    Res.add("max_rate_per_s", PassAchieved, "1/s");
    Res.add("peak_rss_mb", PeakRss, "MB");
  } else {
    std::map<std::string, double> Self = T.selfMs();
    std::vector<double> TracedMs, UntracedMs;
    for (size_t I = 0; I < Low.size(); ++I)
      (I % 2 ? TracedMs : UntracedMs).push_back(Low[I].LatencyMs);
    addLayerTimes(Res, Self, {}, TracedMs, UntracedMs);
    for (unsigned K = 0; K < NumKinds; ++K) {
      std::vector<double> Trips;
      for (const std::vector<Sample> *P : {&Low, &High})
        for (const Sample &S : *P)
          if (S.K == K && S.Ok)
            Trips.push_back(S.RoundtripMs);
      Res.add(std::string("server.roundtrip_ms.") + KindNames[K],
              median(Trips), "ms");
    }
    std::vector<double> Lags;
    for (const Sample &S : High)
      Lags.push_back(S.LagMs);
    Res.add("server.send_lag_ms", quantiles(Lags).Tail, "ms");
    auto Delta = [&](const std::string &Name) {
      return series(MetricsAfter, Name) - series(MetricsBefore, Name);
    };
    double ReloadNs =
        Delta("irdl_serve_request_duration_ns_sum{type=\"RELOAD_DIALECT\"}");
    double Reloads =
        Delta("irdl_serve_request_duration_ns_count{type=\"RELOAD_DIALECT\"}");
    Res.add("server.reload_ms", Reloads ? ReloadNs / Reloads / 1e6 : 0, "ms");
    double ReadNs = Delta("irdl_reader_duration_ns_sum{format=\"text\"}");
    double Reads = Delta("irdl_reader_duration_ns_count{format=\"text\"}");
    double ReadBytes = Delta("irdl_reader_bytes_total{format=\"text\"}");
    Res.add("ir.parse_ms", Reads ? ReadNs / Reads / 1e6 : 0, "ms");
    Res.add("ir.parse_mb_per_s", ReadNs ? ReadBytes / 1e6 / (ReadNs / 1e9) : 0,
            "MB/s");
    double Hits = Delta("irdl_constraint_memo_hits_total"),
           Misses = Delta("irdl_constraint_memo_misses_total");
    Res.add("irdl.memo_hit_ratio", Hits + Misses ? Hits / (Hits + Misses) : 0,
            "ratio");
    Res.add("server.daemon_rss_mb", median(RssSamples), "MB");
    Res.add("server.rss_growth_mb", RssGrowth, "MB");
    Res.add("latency_samples", (double)QL.Count, "count");
    Res.add("latency_tail_percentile", TailPercentile, "percent");
    completePerLayer(Res);
    if (!T.writeJson(std::string(WorkDir) + "/spans-serve-mixed.json"))
      std::cerr << "e2ebench: cannot write the span dump\n";
  }
  Res.print();
  return Res.correct() ? 0 : 1;
}
