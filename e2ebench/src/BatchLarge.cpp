//===- BatchLarge.cpp - The batch-large workload --------------------------===//
///
/// A batch compile pipeline: one client in a closed loop pushes large
/// multi-dialect modules through parse -> verify -> conorm -> verify ->
/// dce -> verify -> print -> write .irbc -> read .irbc -> verify ->
/// structural compare, on every CPU in one warm context holding all 33
/// dialects (the 28-dialect corpus, its support dialect, and the five
/// bundled .irdl files). IR parse, uniquing, verification, the thread
/// pool, rewriting, printing and module bytecode do the work; the IRDL
/// frontend does none.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Generator.h"
#include "Pipeline.h"

#include "bytecode/Bytecode.h"
#include "corpus/Synthesizer.h"
#include "ir/Block.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/StructuralCompare.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"
#include "support/Threading.h"

#include <algorithm>
#include <cmath>
#include <iostream>

using namespace e2e;
using namespace irdl;

namespace {

/// Modules per seed. Their sizes are spread evenly on a log scale from
/// 100 KB to 1 MB (with a little seeded jitter), and their function counts
/// grow with the size from 20 to 60, so every seed sees the same mix of
/// sizes and shapes and runs stay comparable across seeds. Each module's
/// latencies form a cluster; with an odd count, and only whole passes over
/// the pool in the statistics, the median falls inside the middle
/// module's cluster rather than in the gap between two clusters.
constexpr unsigned PoolSize = 15;
/// Each set-up loads all 33 dialects into a new context, and every load
/// leaves memory behind in the process (README.md, Findings), so more
/// repeats would raise peak_rss_mb with the benchmark's own set-ups.
constexpr unsigned SetupRepeats = 5;

size_t countOccurrences(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Text.find(Needle); Pos != std::string::npos;
       Pos = Text.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

size_t expectedCount(const std::map<std::string, long> &Ops,
                     const std::string &Name) {
  auto It = Ops.find(Name);
  return It == Ops.end() ? 0 : (size_t)It->second;
}

/// The warm context and what lives as long as it; members are destroyed
/// in reverse order, specs before the context that holds their verifiers.
struct WarmContext {
  IRContext Ctx;
  SourceMgr SpecSources;
  std::vector<std::unique_ptr<IRDLModule>> Specs;
};

/// Sizes of one traced unit's work, for the per-layer rates.
struct UnitWork {
  size_t ParsedBytes = 0, PrintedBytes = 0, BytecodeBytes = 0;
  size_t OpsVerified = 0, DceErased = 0;
  int64_t ArenaPeak = 0;
};

/// One module through the whole pipeline. Returns false (after recording
/// why) on any wrong verdict, diagnostic, count or round-trip mismatch.
bool runUnit(IRContext &Ctx, const ModuleCase &C, uint64_t Unit, Tracer &T,
             Result &Res, UnitWork &Work) {
  Tracer::Span UnitSpan(T, "unit", Unit);
  SourceMgr Sources;
  DiagnosticEngine Diags(&Sources);
  OwningOpRef M;
  {
    Tracer::Span S(T, "ir.parse", Unit);
    M = parseSourceString(Ctx, C.Text, Sources, Diags, C.Name);
  }
  Work.ParsedBytes = C.Text.size();
  if (!M) {
    Res.fail(C.Name + " does not parse:\n" + Diags.renderAll());
    return false;
  }
  auto Verify = [&](Operation *Op, size_t Ops) {
    Tracer::Span S(T, "ir.verify", Unit);
    Work.OpsVerified += Ops;
    return succeeded(verifyOp(Op, Diags));
  };
  size_t OpsBefore = totalOps(C.OpsBefore), OpsAfter = totalOps(C.OpsAfter);
  bool Verified = Verify(M.get(), OpsBefore);
  if (!C.valid()) {
    bool Ok = true;
    {
      Tracer::Span S(T, "bench.check", Unit);
      if (Verified) {
        Res.fail(C.Name + ": invalid module verified");
        Ok = false;
      } else if (Diags.renderAll() != C.ExpectedDiags) {
        Res.fail(C.Name + ": diagnostics differ from the oracle's:\n" +
                 Diags.renderAll() + "expected:\n" + C.ExpectedDiags);
        Ok = false;
      }
    }
    Tracer::Span S(T, "ir.teardown", Unit);
    M.reset();
    return Ok;
  }
  if (!Verified) {
    Res.fail(C.Name + ": valid module failed to verify:\n" +
             Diags.renderAll());
    return false;
  }

  {
    Tracer::Span S(T, "ir.rewrite", Unit);
    std::unique_ptr<FunctionPass> Conorm = makeConormPass(Ctx);
    if (failed(Conorm->run(M.get(), Diags))) {
      Res.fail(C.Name + ": conorm failed");
      return false;
    }
  }
  if (!Verify(M.get(), OpsBefore + C.Triples)) {
    Res.fail(C.Name + ": IR invalid after conorm:\n" + Diags.renderAll());
    return false;
  }
  unsigned Erased;
  {
    Tracer::Span S(T, "ir.dce", Unit);
    DeadCodeEliminationPass Dce({}, /*AssumeRegisteredOpsPure=*/true);
    if (failed(Dce.run(M.get(), Diags))) {
      Res.fail(C.Name + ": dce failed");
      return false;
    }
    Erased = Dce.getNumErased();
  }
  Work.DceErased = Erased;
  if (!Verify(M.get(), OpsAfter)) {
    Res.fail(C.Name + ": IR invalid after dce:\n" + Diags.renderAll());
    return false;
  }
  std::string Printed;
  {
    Tracer::Span S(T, "ir.print", Unit);
    Printed = printOpToString(M.get());
  }
  Work.PrintedBytes = Printed.size();
  std::string Bytecode;
  {
    Tracer::Span S(T, "bytecode.write", Unit);
    BytecodeWriter Writer;
    Writer.setModule(M.get());
    Bytecode = Writer.write();
  }
  Work.BytecodeBytes = Bytecode.size();
  BytecodeReadResult Read;
  {
    Tracer::Span S(T, "bytecode.read", Unit);
    BytecodeReader Reader(Ctx, Diags);
    if (failed(Reader.read(Bytecode, Read, C.Name + ".irbc")) ||
        !Read.Module) {
      Res.fail(C.Name + ": cannot read back its bytecode:\n" +
               Diags.renderAll());
      return false;
    }
  }
  if (!Verify(Read.Module.get(), OpsAfter)) {
    Res.fail(C.Name + ": bytecode module invalid:\n" + Diags.renderAll());
    return false;
  }
  bool Ok = true;
  {
    Tracer::Span S(T, "ir.compare", Unit);
    std::string WhyNot;
    if (!isStructurallyEquivalent(M.get(), Read.Module.get(), &WhyNot)) {
      Res.fail(C.Name + ": bytecode round trip differs: " + WhyNot);
      Ok = false;
    }
  }
  {
    // The known answer: conorm fired once per triple, dce erased exactly
    // the leftovers, and the IR (as counted and as printed) holds the op
    // counts the generator predicted.
    Tracer::Span S(T, "bench.check", Unit);
    if (Erased != C.DeadOps) {
      Res.fail(C.Name + ": dce erased " + std::to_string(Erased) +
               " ops, expected " + std::to_string(C.DeadOps));
      Ok = false;
    } else if (countOps(M.get()) != C.OpsAfter) {
      Res.fail(C.Name + ": op counts after the pipeline are wrong");
      Ok = false;
    } else if (countOccurrences(Printed, " cmath.mul ") !=
                   expectedCount(C.OpsAfter, "cmath.mul") ||
               countOccurrences(Printed, " std.mulf ") !=
                   expectedCount(C.OpsAfter, "std.mulf")) {
      Res.fail(C.Name + ": printed IR does not show the conorm result");
      Ok = false;
    }
  }
  if (T.enabled())
    Work.ArenaPeak = LibraryCounters::read().ArenaBytesLive;
  Tracer::Span S(T, "ir.teardown", Unit);
  Read.Module.reset();
  M.reset();
  return Ok;
}

} // namespace

int e2e::runBatchLarge(const Options &O) {
  // One thread per CPU. parallelFor's caller drains indices beside the
  // pool's workers, so --mt=N runs N + 1 threads: on four CPUs --mt=4
  // would put five threads on four CPUs, and a descheduled one holds up
  // its whole loop (unit times of one module spread twice as wide as at
  // --mt=3). The pool therefore gets one worker fewer than there are CPUs.
  size_t Cpus = allowedCpus().size();
  unsigned Threads = Cpus > 3 ? (unsigned)Cpus - 1 : 2;
  setGlobalThreadCount(Threads);
  Result Res;
  Rng R(O.Seed);

  // Inputs: generated and checked by the oracle before any timing.
  std::string CorpusText = synthesizeCorpusIRDL();
  std::vector<ModuleCase> Pool;
  {
    std::vector<unsigned> Order(PoolSize);
    for (unsigned I = 0; I < PoolSize; ++I)
      Order[I] = I;
    for (unsigned I = PoolSize - 1; I > 0; --I)
      std::swap(Order[I], Order[R.range(0, I)]);
    Oracle Check(/*WithCorpus=*/true, CorpusText);
    for (unsigned I = 0; I < PoolSize; ++I) {
      unsigned Rank = Order[I];
      double Jitter = 0.95 + 0.1 * R.unit();
      size_t Bytes =
          (size_t)(100e3 * std::pow(10.0, Rank / double(PoolSize - 1)) *
                   Jitter);
      // Two fixed size ranks carry the invalid share, so every seed keeps
      // the same mix of valid sizes; their stream positions and mutation
      // kinds are seeded.
      Mutation Mut = Mutation::None;
      if (Rank == PoolSize / 4 || Rank == 3 * PoolSize / 4)
        Mut = (Mutation)R.range(1, 3);
      Pool.push_back(generateModule(R, "module" + std::to_string(I) + ".mlir",
                                    Bytes, 20 + 40 * Rank / (PoolSize - 1),
                                    Mut));
      std::string Why;
      if (!Check.check(Pool.back(), /*ServeStyle=*/false, Why)) {
        std::cerr << "e2ebench: generator/oracle disagreement: " << Why
                  << "\n";
        return 2;
      }
    }
  }
  const ModuleCase *Smallest = nullptr;
  for (const ModuleCase &C : Pool)
    if (C.valid() && (!Smallest || C.Text.size() < Smallest->Text.size()))
      Smallest = &C;

  // Setup, repeated: context construction, all 33 dialects, and one
  // warm-up unit. The last context stays for the timed loop.
  std::vector<double> SetupS, LoadMs, ContextMs;
  std::unique_ptr<WarmContext> Warm;
  Tracer Off(false);
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Warm) {
      int64_t D0 = nowNs();
      Warm.reset();
      ContextMs.back() += msSince(D0);
    }
    int64_t T0 = nowNs();
    Warm = std::make_unique<WarmContext>();
    ContextMs.push_back(msSince(T0));
    int64_t L0 = nowNs();
    DiagnosticEngine Diags(&Warm->SpecSources);
    Warm->Specs = loadDialects(Warm->Ctx, Warm->SpecSources, Diags,
                               /*WithCorpus=*/true, CorpusText);
    LoadMs.push_back(msSince(L0));
    if (Warm->Specs.empty()) {
      std::cerr << "e2ebench: cannot load dialects:\n" << Diags.renderAll();
      return 2;
    }
    UnitWork Work;
    if (!runUnit(Warm->Ctx, *Smallest, 0, Off, Res, Work)) {
      Res.print();
      return 1;
    }
    SetupS.push_back(msSince(T0) / 1e3);
  }
  size_t OpsRegistered = 0;
  for (const auto &M : Warm->Specs)
    OpsRegistered += M->getNumOps();

  // The set-up units started the thread pool, whose workers keep every
  // CPU. The client thread, which runs the serial stages (parse, print,
  // bytecode, compare), stays on one CPU: migrating between CPUs spreads
  // unit times far more than the work does.
  pinToLastCpu();

  // Timed closed loop. In the traced run, whole passes over the pool
  // alternate between untraced and traced so both see every module.
  Tracer T(O.Trace);
  std::vector<double> WallMs, TracedMs, UntracedMs;
  std::vector<UnitWork> Works;
  std::vector<double> ArenaPeaks;
  LibraryCounters Before = LibraryCounters::read();
  uint64_t Unit = 0;
  int64_t Start = nowNs();
  int64_t Deadline = Start + (int64_t)(O.Seconds * 1e9);
  while (nowNs() < Deadline) {
    const ModuleCase &C = Pool[Unit % PoolSize];
    bool Traced = O.Trace && (Unit / PoolSize) % 2 == 1;
    Tracer Untraced(false);
    if (Traced) {
      setMetricsEnabled(true);
      ConormCounts::Enabled = true;
    }
    UnitWork Work;
    int64_t U0 = nowNs();
    Res.attempt();
    bool Ok = runUnit(Warm->Ctx, C, Unit, Traced ? T : Untraced, Res, Work);
    double Ms = msSince(U0);
    if (Traced) {
      setMetricsEnabled(false);
      ConormCounts::Enabled = false;
      TracedMs.push_back(Ms);
      Works.push_back(Work);
      ArenaPeaks.push_back((double)Work.ArenaPeak);
    } else {
      UntracedMs.push_back(Ms);
    }
    WallMs.push_back(Ms);
    ++Unit;
    if (!Ok)
      break;
  }
  double Elapsed = msSince(Start) / 1e3;
  double Throughput = WallMs.size() / Elapsed;
  if (WallMs.size() >= PoolSize)
    WallMs.resize(WallMs.size() / PoolSize * PoolSize);
  LibraryCounters After = LibraryCounters::read();
  int64_t D0 = nowNs();
  Warm.reset();
  ContextMs.back() += msSince(D0);

  if (!O.Trace) {
    Quantiles Q = quantiles(WallMs);
    std::cerr << "e2ebench: batch-large --mt=" << Threads << ", " << Q.Count
              << " units, p" << Q.TailPercentile << " tail\n";
    Res.add("setup_s", median(SetupS), "s");
    Res.add("latency_p50_ms", Q.P50, "ms");
    Res.add("latency_tail_ms", Q.Tail, "ms");
    Res.add("throughput_per_s", Throughput, "1/s");
    // One closed-loop client offers the highest load it can: its load is
    // both the base and the high load, and its rate is its throughput.
    Res.add("latency_p50_ms_high", Q.P50, "ms");
    Res.add("latency_tail_ms_high", Q.Tail, "ms");
    Res.add("max_rate_per_s", Throughput, "1/s");
    Res.add("peak_rss_mb", selfPeakRssMb(), "MB");
  } else {
    double Units = std::max<size_t>(1, TracedMs.size());
    std::map<std::string, double> Self = T.selfMs();
    size_t Parsed = 0, Printed = 0, BcBytes = 0, OpsVerified = 0, Erased = 0;
    for (const UnitWork &W : Works) {
      Parsed += W.ParsedBytes;
      Printed += W.PrintedBytes;
      BcBytes += W.BytecodeBytes;
      OpsVerified += W.OpsVerified;
      Erased += W.DceErased;
    }
    addLayerTimes(Res, Self,
                  {"ir.parse", "ir.verify", "ir.rewrite", "ir.dce",
                   "ir.print", "ir.compare", "ir.teardown", "bytecode.write",
                   "bytecode.read", "bench.check"},
                  TracedMs, UntracedMs);
    Res.add("ir.parse_mb_per_s", Parsed / 1e6 / (Self["ir.parse"] / 1e3),
            "MB/s");
    Res.add("ir.verify_ops_per_s", OpsVerified / (Self["ir.verify"] / 1e3),
            "1/s");
    Res.add("ir.print_mb_per_s", Printed / 1e6 / (Self["ir.print"] / 1e3),
            "MB/s");
    Res.add("support.pool_tasks", (After.PoolTasks - Before.PoolTasks) / Units,
            "count");
    Res.add("support.pool_busy_ms",
            (After.PoolBusyNs - Before.PoolBusyNs) / 1e6 / Units, "ms");
    uint64_t Hits = After.MemoHits - Before.MemoHits,
             Misses = After.MemoMisses - Before.MemoMisses;
    Res.add("irdl.memo_hit_ratio",
            Hits + Misses ? double(Hits) / (Hits + Misses) : 0, "ratio");
    uint64_t Attempted = ConormCounts::Attempted, Applied = ConormCounts::Applied;
    Res.add("ir.rewrite_applied", Applied / Units, "count");
    Res.add("ir.rewrite_hit_ratio", Attempted ? double(Applied) / Attempted : 0,
            "ratio");
    Res.add("ir.dce_erased", Erased / Units, "count");
    Res.add("ir.context_ms", median(ContextMs), "ms");
    Res.add("ir.arena_bytes_live", median(ArenaPeaks), "bytes");
    Res.add("irdl.load_ms", median(LoadMs), "ms");
    Res.add("irdl.ops_registered", (double)OpsRegistered, "count");
    Res.add("bytecode.bytes", BcBytes / Units, "bytes");
    Quantiles Q = quantiles(WallMs);
    Res.add("latency_samples", (double)Q.Count, "count");
    Res.add("latency_tail_percentile", Q.TailPercentile, "percent");
    completePerLayer(Res);
    if (!T.writeJson(std::string(WorkDir) + "/spans-batch-large.json"))
      std::cerr << "e2ebench: cannot write the span dump\n";
  }
  Res.print();
  return Res.correct() ? 0 : 1;
}
