//===- Generator.cpp - Seeded known-answer inputs -------------------------===//

#include "Generator.h"

#include "corpus/Corpus.h"
#include "ir/Block.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/ConstraintCompiler.h"
#include "support/File.h"
#include "support/Threading.h"

#include <cstdio>

using namespace e2e;
using namespace irdl;

size_t e2e::totalOps(const std::map<std::string, long> &Ops) {
  size_t N = 0;
  for (const auto &[Name, Count] : Ops)
    N += Count;
  return N;
}

std::map<std::string, long> e2e::countOps(Operation *Root) {
  std::map<std::string, long> Ops;
  Root->walk([&](Operation *Op) { ++Ops[Op->getName().str()]; });
  return Ops;
}

namespace {

/// Emits one std.func body segment by segment, tracking the op counts the
/// text holds before and after conorm + dce. Every value a segment
/// defines is consumed by a later op (the running accumulator or a region
/// op's bounds) unless the segment marks it dead on purpose, so dce
/// erases exactly the conorm leftovers and the marked ops, and erasing
/// them never leaves another op dead.
class FunctionWriter {
public:
  FunctionWriter(Rng &R, ModuleCase &C, std::string &Out)
      : R(R), C(C), Out(Out) {}

  void begin(const std::string &Name) {
    Out += "std.func @" + Name +
           "(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>, %x: f32, "
           "%n: i32) -> f32 {\n";
    Acc = "%x";
    both("std.func");
    both("std.return");
  }
  void end() { Out += "  std.return " + Acc + " : f32\n}\n"; }

  /// Listing 1a: norm, norm, mulf; conorm turns it into mul + norm and
  /// leaves both old norms to dce.
  void triple() {
    std::string A = fresh(), B = fresh(), M = fresh();
    Out += "  " + A + " = cmath.norm %p : f32\n";
    Out += "  " + B + " = cmath.norm %q : f32\n";
    Out += "  " + M + " = std.mulf " + A + ", " + B + " : f32\n";
    before("cmath.norm", 2);
    before("std.mulf");
    after("cmath.mul");
    after("cmath.norm");
    ++C.Triples;
    C.DeadOps += 2;
    accumulate(M);
  }

  void mulChain() {
    unsigned Len = (unsigned)R.range(2, 6);
    std::string Prev = "%p";
    for (unsigned I = 0; I < Len; ++I) {
      std::string V = fresh();
      Out += "  " + V + " = cmath.mul " + Prev + ", " +
             (I % 2 ? "%p" : "%q") + " : f32\n";
      both("cmath.mul");
      Prev = V;
    }
    std::string N = fresh();
    Out += "  " + N + " = cmath.norm " + Prev + " : f32\n";
    both("cmath.norm");
    accumulate(N);
  }

  void arithmetic() {
    static const char *Fast[] = {"none", "fast", "contract"};
    static const char *Unary[] = {"sqrt", "exp", "log", "sin",
                                  "cos",  "tanh", "absf"};
    static const char *Binary[] = {"add", "sub", "mul", "div"};
    static const char *Project[] = {"abs", "re", "im"};
    std::string A = fresh(), M = fresh(), U = fresh(), P = fresh(),
                Cx = fresh(), B = fresh(), Pr = fresh();
    Out += "  " + A + " = \"arith.addf\"(" + Acc + ", %x) {fm = arith.fastmath." +
           Fast[R.range(0, 2)] + "} : (f32, f32) -> f32\n";
    Out += "  " + M + " = \"arith.mulf\"(" + A + ", %x) {fm = arith.fastmath." +
           Fast[R.range(0, 2)] + "} : (f32, f32) -> f32\n";
    std::string UnaryOp = std::string("math.") + Unary[R.range(0, 6)];
    Out += "  " + U + " = " + UnaryOp + " " + M + " : f32\n";
    Out += "  " + P + " = math.powf " + U + ", %x : f32\n";
    Out += "  " + Cx + " = complex.create " + P + ", %x : f32\n";
    std::string BinOp = std::string("complex.") + Binary[R.range(0, 3)];
    Out += "  " + B + " = " + BinOp + " " + Cx + ", " + Cx + " : f32\n";
    std::string ProjOp = std::string("complex.") + Project[R.range(0, 2)];
    Out += "  " + Pr + " = " + ProjOp + " " + B + " : f32\n";
    both("arith.addf");
    both("arith.mulf");
    both(UnaryOp);
    both("math.powf");
    both("complex.create");
    both(BinOp);
    both(ProjOp);
    Acc = Pr;
  }

  /// A fresh float constant: every module (and every served request)
  /// uniques attributes the context has not seen.
  void constant() {
    std::string K = fresh(), M = fresh(), N = fresh();
    Out += "  " + K + " = cmath.create_constant " + floatLiteral() +
           " : f32, " + floatLiteral() + " : f32\n";
    Out += "  " + M + " = cmath.mul " + K + ", %p : f32\n";
    Out += "  " + N + " = cmath.norm " + M + " : f32\n";
    both("cmath.create_constant");
    both("cmath.mul");
    both("cmath.norm");
    accumulate(N);
  }

  /// Region ops with block arguments; each body holds one dead op.
  void regions() {
    std::string Hi = fresh(), Ix = fresh(), Cond = fresh();
    std::string DeadI = fresh(), DeadF = fresh(), DeadT = fresh();
    Out += "  " + Hi + " = \"arith.addi\"(%n, %n) : (i32, i32) -> i32\n";
    Out += "  \"cmath.range_loop\"(%n, " + Hi + ", %n) ({\n  " + block() +
           "(%iv" + std::to_string(Blocks) + ": i32):\n    " + DeadI +
           " = \"arith.muli\"(%iv" + std::to_string(Blocks) + ", " + Hi +
           ") : (i32, i32) -> i32\n"
           "    \"cmath.range_loop_terminator\"() : () -> ()\n"
           "  }) : (i32, i32, i32) -> ()\n";
    Out += "  " + Ix + " = \"arith.index_cast\"(" + Hi +
           ") : (i32) -> index\n";
    Out += "  \"scf.for\"(" + Ix + ", " + Ix + ", " + Ix + ") ({\n  " +
           block() + "(%i" + std::to_string(Blocks) + ": index):\n    " +
           DeadF + " = math.sqrt %x : f32\n    \"scf.yield\"() : () -> ()\n"
           "  }) : (index, index, index) -> ()\n";
    Out += "  " + Cond + " = \"arith.cmpi\"(%n, " + Hi +
           ") {predicate = arith.cmp_predicate.slt} : (i32, i32) -> i1\n";
    Out += "  \"scf.if\"(" + Cond + ") ({\n    " + DeadT +
           " = math.exp %x : f32\n    \"scf.yield\"() : () -> ()\n  }, {\n"
           "    \"scf.yield\"() : () -> ()\n  }) : (i1) -> ()\n";
    for (const char *Op :
         {"arith.addi", "cmath.range_loop", "cmath.range_loop_terminator",
          "arith.index_cast", "scf.for", "arith.cmpi", "scf.if"})
      both(Op);
    both("scf.yield", 3);
    before("arith.muli");
    before("math.sqrt");
    before("math.exp");
    C.DeadOps += 3;
  }

  /// A std.mulf that is not a norm pair: conorm attempts it and declines.
  void plainMul() {
    std::string M = fresh();
    Out += "  " + M + " = std.mulf " + Acc + ", %x : f32\n";
    both("std.mulf");
    Acc = M;
  }

  /// A dead op at function level.
  void dead() {
    Out += "  " + fresh() + " = math.exp %x : f32\n";
    before("math.exp");
    ++C.DeadOps;
  }

  /// The op a mutated module adds; it fails verification for the reason
  /// the mutation names, and nothing uses its result.
  void mutation(Mutation M) {
    std::string V = fresh();
    switch (M) {
    case Mutation::NormResultType:
      Out += "  " + V +
             " = \"cmath.norm\"(%p) : (!cmath.complex<f32>) -> f64\n";
      C.MutatedOp = "cmath.norm";
      break;
    case Mutation::MissingAttribute:
      Out += "  " + V + " = \"arith.addf\"(%x, %x) : (f32, f32) -> f32\n";
      C.MutatedOp = "arith.addf";
      break;
    case Mutation::NonFloatOperand:
      Out += "  " + V + " = \"math.sqrt\"(%n) : (i32) -> i32\n";
      C.MutatedOp = "math.sqrt";
      break;
    case Mutation::None:
      return;
    }
    before(C.MutatedOp);
  }

  void segment() {
    switch (R.range(0, 10)) {
    case 0:
    case 1:
    case 2:
      return triple();
    case 3:
    case 4:
      return mulChain();
    case 5:
    case 6:
      return arithmetic();
    case 7:
      return constant();
    case 8:
      return regions();
    case 9:
      return plainMul();
    default:
      return dead();
    }
  }

private:
  std::string fresh() { return "%v" + std::to_string(NextValue++); }
  std::string block() { return "^bb" + std::to_string(++Blocks); }
  std::string floatLiteral() {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4f", R.unit() * 200 - 100);
    return Buf;
  }
  void accumulate(const std::string &V) {
    std::string Sum = fresh();
    Out += "  " + Sum + " = std.addf " + Acc + ", " + V + " : f32\n";
    both("std.addf");
    Acc = Sum;
  }
  void before(const std::string &Op, long N = 1) { C.OpsBefore[Op] += N; }
  void after(const std::string &Op, long N = 1) { C.OpsAfter[Op] += N; }
  void both(const std::string &Op, long N = 1) {
    before(Op, N);
    after(Op, N);
  }

  Rng &R;
  ModuleCase &C;
  std::string &Out;
  std::string Acc;
  unsigned NextValue = 0;
  unsigned Blocks = 0;
};

} // namespace

ModuleCase e2e::generateModule(Rng &R, std::string Name, size_t TargetBytes,
                               unsigned NumFunctions, Mutation Mut) {
  ModuleCase C;
  C.Name = std::move(Name);
  C.Mut = Mut;
  C.OpsBefore["builtin.module"] = C.OpsAfter["builtin.module"] = 1;
  C.Text.reserve(TargetBytes + TargetBytes / 8);
  size_t PerFunction = TargetBytes / NumFunctions;
  unsigned MutatedFunction = (unsigned)R.range(0, NumFunctions - 1);
  for (unsigned F = 0; F < NumFunctions; ++F) {
    FunctionWriter W(R, C, C.Text);
    size_t Start = C.Text.size();
    W.begin(std::string("f") + std::to_string(F));
    bool Mutate = Mut != Mutation::None && F == MutatedFunction;
    while (C.Text.size() - Start < PerFunction) {
      W.segment();
      if (Mutate && C.Text.size() - Start >= PerFunction / 2) {
        W.mutation(Mut);
        Mutate = false;
      }
    }
    if (Mutate)
      W.mutation(Mut);
    W.end();
  }
  return C;
}

ModuleCase e2e::generateSmall(Rng &R, std::string Name, Mutation Mut) {
  ModuleCase C;
  C.Name = std::move(Name);
  C.Mut = Mut;
  C.OpsBefore["builtin.module"] = C.OpsAfter["builtin.module"] = 1;
  FunctionWriter W(R, C, C.Text);
  W.begin("conorm");
  W.constant();
  W.triple();
  W.mutation(Mut);
  W.end();
  return C;
}

std::vector<std::pair<std::string, std::string>> e2e::bundledDialects() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *File :
       {"cmath.irdl", "arith.irdl", "scf.irdl", "complex.irdl", "math.irdl"}) {
    std::string Text, Error;
    if (failed(readFileToString(std::string(IRDL_DIALECTS_DIR) + "/" + File,
                                Text, Error)))
      return {};
    Out.push_back({File, std::move(Text)});
  }
  return Out;
}

std::vector<std::unique_ptr<IRDLModule>>
e2e::loadDialects(IRContext &Ctx, SourceMgr &SrcMgr, DiagnosticEngine &Diags,
                  bool WithCorpus, const std::string &CorpusText) {
  static const std::vector<std::pair<std::string, std::string>> Bundled =
      bundledDialects();
  std::vector<std::unique_ptr<IRDLModule>> Out;
  if (Bundled.empty())
    return Out;
  if (WithCorpus) {
    auto M = loadIRDL(Ctx, CorpusText, SrcMgr, Diags, corpusNativeOptions(),
                      "corpus.irdl");
    if (!M)
      return {};
    Out.push_back(std::move(M));
  }
  for (const auto &[Name, Text] : Bundled) {
    auto M = loadIRDL(Ctx, Text, SrcMgr, Diags, {}, Name);
    if (!M)
      return {};
    Out.push_back(std::move(M));
  }
  return Out;
}

Oracle::Oracle(bool WithCorpus, const std::string &CorpusText)
    : Ctx(std::make_unique<IRContext>()) {
  DiagnosticEngine Diags(&SrcMgr);
  Loaded = loadDialects(*Ctx, SrcMgr, Diags, WithCorpus, CorpusText);
  if (Loaded.empty()) {
    std::fprintf(stderr, "e2ebench: oracle cannot load dialects:\n%s",
                 Diags.renderAll().c_str());
    std::exit(2);
  }
}

Oracle::~Oracle() = default;

bool Oracle::check(ModuleCase &C, bool ServeStyle, std::string &Why) {
  // The tree interpreter on one thread: independent of the compiled
  // programs, the memo cache and the pool that the timed path uses.
  bool WasCompiled = compiledConstraintsEnabled();
  unsigned Threads = getGlobalThreadCount();
  setCompiledConstraintsEnabled(false);
  setGlobalThreadCount(1);

  SourceMgr Sources;
  DiagnosticEngine Diags(&Sources);
  OwningOpRef M = parseSourceString(*Ctx, C.Text, Sources, Diags, C.Name);
  bool Ok = true;
  if (!M) {
    Why = C.Name + " does not parse:\n" + Diags.renderAll();
    Ok = false;
  } else if (countOps(M.get()) != C.OpsBefore) {
    Why = C.Name + ": parsed op counts differ from the generator's";
    Ok = false;
  } else {
    DiagnosticEngine VerifyDiags(&Sources);
    bool Verified = succeeded(verifyOp(M.get(), VerifyDiags));
    if (Verified != C.valid()) {
      Why = C.Name + ": oracle verdict " + (Verified ? "valid" : "invalid") +
            " disagrees with the generator\n" + VerifyDiags.renderAll();
      Ok = false;
    } else if (!Verified) {
      if (ServeStyle)
        VerifyDiags.emitError(M->getLoc(),
                              "IR failed to verify before the pipeline");
      C.ExpectedDiags = VerifyDiags.renderAll();
      if (C.ExpectedDiags.find(C.MutatedOp) == std::string::npos) {
        Why = C.Name + ": oracle diagnostics do not name " + C.MutatedOp +
              ":\n" + C.ExpectedDiags;
        Ok = false;
      }
    }
  }
  M.reset();
  setCompiledConstraintsEnabled(WasCompiled);
  setGlobalThreadCount(Threads);
  return Ok;
}
