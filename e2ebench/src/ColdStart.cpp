//===- ColdStart.cpp - The cold-start workload ----------------------------===//
///
/// The two irdl_opt invocations a user runs, one after the other at
/// --mt=1, each with a fresh context, inside one fresh process per unit:
///   A: new IRContext; load all 33 dialects from IRDL text (with the
///      corpus's native hooks); parse Listing 1a; verify; conorm + dce;
///      print; emit a self-contained .irbc (specs, compiled constraint
///      programs and the module).
///   B: second new IRContext; read that .irbc; verify; print.
/// Both prints must equal Listing 1b as written below. The IRDL frontend,
/// registration, constraint compilation, spec bytecode and context
/// construction and teardown dominate; IR work is tiny. A unit is timed
/// inside its process, so fork and exit are not part of it.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Generator.h"
#include "Pipeline.h"

#include "bytecode/Bytecode.h"
#include "corpus/Corpus.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"
#include "support/Threading.h"

#include <cerrno>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace e2e;
using namespace irdl;

namespace {

constexpr unsigned SetupRepeats = 9;

const char *Listing1a =
    "std.func @conorm(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>) -> "
    "f32 {\n"
    "  %norm_p = cmath.norm %p : f32\n"
    "  %norm_q = cmath.norm %q : f32\n"
    "  %pq = std.mulf %norm_p, %norm_q : f32\n"
    "  std.return %pq : f32\n"
    "}\n";

/// Listing 1b: the optimized conorm, as the printer renders it.
const char *Listing1b =
    "builtin.module {\n"
    "  std.func @conorm(%0: !cmath.complex<f32>, %1: !cmath.complex<f32>) -> "
    "f32 {\n"
    "    %2 = cmath.mul %0, %1 : f32\n"
    "    %3 = cmath.norm %2 : f32\n"
    "    std.return %3 : f32\n"
    "  }\n"
    "}";

struct UnitWork {
  size_t OpsRegistered = 0;
  size_t BytecodeBytes = 0;
};

bool checkPrinted(const std::string &Printed, const char *Run, Tracer &T,
                  uint64_t Unit, Result &Res) {
  Tracer::Span S(T, "bench.check", Unit);
  if (Printed == Listing1b)
    return true;
  Res.fail(std::string("cold-start run ") + Run +
           " printed something other than Listing 1b:\n" + Printed);
  return false;
}

bool runUnit(const std::string &CorpusText, uint64_t Unit, Tracer &T,
             Result &Res, UnitWork &Work) {
  Tracer::Span UnitSpan(T, "unit", Unit);
  std::string Bytecode;
  // Run A.
  {
    std::unique_ptr<IRContext> Ctx;
    {
      Tracer::Span S(T, "ir.context", Unit);
      Ctx = std::make_unique<IRContext>();
    }
    SourceMgr Sources;
    DiagnosticEngine Diags(&Sources);
    std::vector<std::unique_ptr<IRDLModule>> Specs;
    {
      Tracer::Span S(T, "irdl.load", Unit);
      Specs = loadDialects(*Ctx, Sources, Diags, /*WithCorpus=*/true,
                           CorpusText);
    }
    if (Specs.empty()) {
      Res.fail("cannot load the dialects:\n" + Diags.renderAll());
      return false;
    }
    for (const auto &M : Specs)
      Work.OpsRegistered += M->getNumOps();
    OwningOpRef M;
    {
      Tracer::Span S(T, "ir.parse", Unit);
      M = parseSourceString(*Ctx, Listing1a, Sources, Diags, "conorm.mlir");
    }
    if (!M) {
      Res.fail("Listing 1a does not parse:\n" + Diags.renderAll());
      return false;
    }
    auto Verify = [&]() {
      Tracer::Span S(T, "ir.verify", Unit);
      return succeeded(verifyOp(M.get(), Diags));
    };
    if (!Verify()) {
      Res.fail("Listing 1a fails to verify:\n" + Diags.renderAll());
      return false;
    }
    {
      Tracer::Span S(T, "ir.rewrite", Unit);
      makeConormPass(*Ctx)->run(M.get(), Diags);
    }
    if (!Verify()) {
      Res.fail("invalid IR after conorm:\n" + Diags.renderAll());
      return false;
    }
    {
      Tracer::Span S(T, "ir.dce", Unit);
      DeadCodeEliminationPass({}, /*AssumeRegisteredOpsPure=*/true)
          .run(M.get(), Diags);
    }
    if (!Verify()) {
      Res.fail("invalid IR after dce:\n" + Diags.renderAll());
      return false;
    }
    std::string Printed;
    {
      Tracer::Span S(T, "ir.print", Unit);
      Printed = printOpToString(M.get());
    }
    if (!checkPrinted(Printed, "A", T, Unit, Res))
      return false;
    {
      Tracer::Span S(T, "bytecode.write", Unit);
      BytecodeWriter Writer;
      for (const auto &Spec : Specs)
        Writer.addModuleSpecs(*Spec);
      Writer.setModule(M.get());
      Bytecode = Writer.write();
    }
    Work.BytecodeBytes = Bytecode.size();
    {
      Tracer::Span S(T, "ir.teardown", Unit);
      M.reset();
    }
    Tracer::Span S(T, "ir.context", Unit);
    Specs.clear();
    Ctx.reset();
  }
  // Run B.
  std::unique_ptr<IRContext> Ctx;
  {
    Tracer::Span S(T, "ir.context", Unit);
    Ctx = std::make_unique<IRContext>();
  }
  DiagnosticEngine Diags;
  BytecodeReadResult Read;
  {
    Tracer::Span S(T, "bytecode.spec_read", Unit);
    BytecodeReader Reader(*Ctx, Diags, corpusNativeOptions());
    if (failed(Reader.read(Bytecode, Read, "conorm.irbc")) || !Read.Module ||
        !Read.Specs) {
      Res.fail("cannot read the self-contained .irbc back:\n" +
               Diags.renderAll());
      return false;
    }
  }
  {
    Tracer::Span S(T, "ir.verify", Unit);
    if (failed(verifyOp(Read.Module.get(), Diags))) {
      Res.fail("the .irbc module fails to verify:\n" + Diags.renderAll());
      return false;
    }
  }
  std::string Printed;
  {
    Tracer::Span S(T, "ir.print", Unit);
    Printed = printOpToString(Read.Module.get());
  }
  if (!checkPrinted(Printed, "B", T, Unit, Res))
    return false;
  {
    Tracer::Span S(T, "ir.teardown", Unit);
    Read.Module.reset();
  }
  Tracer::Span S(T, "ir.context", Unit);
  Read.Specs.reset();
  Ctx.reset();
  return true;
}

/// What a unit process reports back: its verdict, wall time, peak
/// resident set, and (traced) its layer self times, counters and spans.
struct UnitReport {
  bool Ok = false;
  double WallMs = 0;
  double PeakRssMb = 0;
  std::map<std::string, double> Values;
  std::string Spans;
};

/// Runs one unit in a forked process, so every unit starts from fresh
/// process state as a user's tool invocation does. Process-wide state a
/// context leaves behind therefore never accumulates across units.
UnitReport runUnitProcess(const std::string &CorpusText, uint64_t Unit,
                          bool Traced, Result &Res) {
  UnitReport Report;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Res.fail("cannot create a pipe");
    return Report;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Res.fail("cannot fork a unit process");
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return Report;
  }
  if (Pid == 0) {
    ::close(Pipe[0]);
    Tracer T(Traced);
    setMetricsEnabled(Traced);
    ConormCounts::Enabled = Traced;
    Result Checks;
    UnitWork Work;
    int64_t T0 = nowNs();
    bool Ok = runUnit(CorpusText, Unit, T, Checks, Work);
    double Wall = msSince(T0);
    std::ostringstream Out;
    Out.precision(17);
    Out << "ok " << Ok << "\nwall " << Wall << "\nrss " << selfPeakRssMb()
        << "\n";
    if (Traced) {
      for (const auto &[Name, Ms] : T.selfMs())
        Out << Name << " " << Ms << "\n";
      LibraryCounters C = LibraryCounters::read();
      Out << "memo_hits " << C.MemoHits << "\nmemo_misses " << C.MemoMisses
          << "\nconorm_attempted " << ConormCounts::Attempted
          << "\nconorm_applied " << ConormCounts::Applied
          << "\nops_registered " << Work.OpsRegistered
          << "\nbytecode_bytes " << Work.BytecodeBytes << "\nspans\n"
          << T.json();
    }
    std::string Text = Out.str();
    for (size_t Done = 0; Done < Text.size();) {
      ssize_t N = ::write(Pipe[1], Text.data() + Done, Text.size() - Done);
      if (N <= 0)
        ::_exit(3);
      Done += N;
    }
    ::_exit(0);
  }
  ::close(Pipe[1]);
  std::string Text;
  char Buf[65536];
  for (ssize_t N; (N = ::read(Pipe[0], Buf, sizeof(Buf))) != 0;) {
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      break;
    Text.append(Buf, N);
  }
  ::close(Pipe[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Res.fail("unit process " + std::to_string(Unit) + " ended abnormally (" +
             (WIFSIGNALED(Status) ? "signal " + std::to_string(WTERMSIG(Status))
                                  : "exit " + std::to_string(WEXITSTATUS(Status))) +
             ")");
    return Report;
  }
  size_t SpansAt = Text.find("spans\n");
  if (SpansAt != std::string::npos)
    Report.Spans = Text.substr(SpansAt + 6);
  std::istringstream In(Text.substr(0, SpansAt));
  std::string Key;
  double Value;
  while (In >> Key >> Value)
    Report.Values[Key] = Value;
  Report.Ok = Report.Values["ok"] != 0;
  Report.WallMs = Report.Values["wall"];
  Report.PeakRssMb = Report.Values["rss"];
  if (!Report.Ok)
    Res.fail("unit " + std::to_string(Unit) + " gave a wrong answer");
  return Report;
}

} // namespace

int e2e::runColdStart(const Options &O) {
  setGlobalThreadCount(1);
  // The workload is single-threaded: keeping it (and every unit process)
  // on one CPU stops units from migrating, which otherwise spreads their
  // times far more than the work does.
  pinToLastCpu();
  Result Res;
  // The inputs are the paper's Listing 1a and the fixed corpus and
  // bundled dialect texts; the seed changes nothing here.
  std::string CorpusText = synthesizeCorpusIRDL();

  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    UnitReport R = runUnitProcess(CorpusText, 0, false, Res);
    if (!R.Ok) {
      Res.print();
      return 1;
    }
    SetupS.push_back(R.WallMs / 1e3);
  }

  // In the traced run, units alternate between untraced and traced.
  std::vector<double> WallMs, TracedMs, UntracedMs, PeakRss;
  std::map<std::string, double> Sums;
  std::string Spans;
  uint64_t Unit = 0;
  int64_t Start = nowNs();
  int64_t Deadline = Start + (int64_t)(O.Seconds * 1e9);
  while (nowNs() < Deadline) {
    bool Traced = O.Trace && Unit % 2 == 1;
    Res.attempt();
    UnitReport R = runUnitProcess(CorpusText, Unit, Traced, Res);
    ++Unit;
    if (!R.Ok)
      break;
    WallMs.push_back(R.WallMs);
    PeakRss.push_back(R.PeakRssMb);
    (Traced ? TracedMs : UntracedMs).push_back(R.WallMs);
    if (Traced) {
      for (const auto &[Key, Value] : R.Values)
        Sums[Key] += Value;
      Spans += (Spans.empty() ? "" : ",\n") + R.Spans;
    }
  }
  double Elapsed = msSince(Start) / 1e3;

  if (!O.Trace) {
    Quantiles Q = quantiles(WallMs);
    double Throughput = WallMs.size() / Elapsed;
    std::cerr << "e2ebench: cold-start " << Q.Count << " units, p"
              << Q.TailPercentile << " tail\n";
    Res.add("setup_s", median(SetupS), "s");
    Res.add("latency_p50_ms", Q.P50, "ms");
    Res.add("latency_tail_ms", Q.Tail, "ms");
    Res.add("throughput_per_s", Throughput, "1/s");
    // One closed-loop client: see batch-large.
    Res.add("latency_p50_ms_high", Q.P50, "ms");
    Res.add("latency_tail_ms_high", Q.Tail, "ms");
    Res.add("max_rate_per_s", Throughput, "1/s");
    Res.add("peak_rss_mb", median(PeakRss), "MB");
  } else {
    double Units = std::max<size_t>(1, TracedMs.size());
    addLayerTimes(Res, Sums,
                  {"ir.context", "irdl.load", "ir.parse", "ir.verify",
                   "ir.rewrite", "ir.dce", "ir.print", "bytecode.write",
                   "bytecode.spec_read", "ir.teardown", "bench.check"},
                  TracedMs, UntracedMs);
    double Hits = Sums["memo_hits"], Misses = Sums["memo_misses"];
    Res.add("irdl.memo_hit_ratio",
            Hits + Misses ? Hits / (Hits + Misses) : 0, "ratio");
    Res.add("ir.rewrite_applied", Sums["conorm_applied"] / Units, "count");
    Res.add("ir.rewrite_hit_ratio",
            Sums["conorm_attempted"]
                ? Sums["conorm_applied"] / Sums["conorm_attempted"]
                : 0,
            "ratio");
    Res.add("irdl.ops_registered", Sums["ops_registered"] / Units, "count");
    Res.add("bytecode.bytes", Sums["bytecode_bytes"] / Units, "bytes");
    Quantiles Q = quantiles(WallMs);
    Res.add("latency_samples", (double)Q.Count, "count");
    Res.add("latency_tail_percentile", Q.TailPercentile, "percent");
    completePerLayer(Res);
    std::ofstream Dump(std::string(WorkDir) + "/spans-cold-start.json");
    Dump << "[\n" << Spans << "\n]\n";
  }
  Res.print();
  return Res.correct() ? 0 : 1;
}
