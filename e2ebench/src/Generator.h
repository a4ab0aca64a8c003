//===- Generator.h - Seeded known-answer inputs -------------------*- C++ -*-===//
///
/// Builds the benchmark's inputs as text: valid-by-construction modules
/// over the bundled dialects (cmath, arith, scf, complex, math), each
/// with the answer the pipeline must produce, and a seeded mutated share
/// with a fixed reason to fail. Every expected verdict is cross-checked,
/// outside any timed region, by an Oracle that parses the text and
/// verifies it through the tree-interpreter engine; the compiled engine is
/// the one under test.
///
//===----------------------------------------------------------------------===//
#ifndef E2EBENCH_GENERATOR_H
#define E2EBENCH_GENERATOR_H

#include "Common.h"

#include "ir/IRParser.h"
#include "irdl/IRDL.h"

#include <map>
#include <memory>
#include <string>

namespace e2e {

/// How a mutated module must fail verification. Each kind adds one op
/// that breaks a different kind of constraint.
enum class Mutation {
  None,
  /// cmath.norm whose result type does not match its operand's element.
  NormResultType,
  /// arith.addf without its required `fm` attribute.
  MissingAttribute,
  /// math.sqrt on an integer, outside the op's float constraint.
  NonFloatOperand,
};

/// One generated module and its known answer.
struct ModuleCase {
  std::string Name;
  std::string Text;
  Mutation Mut = Mutation::None;
  bool valid() const { return Mut == Mutation::None; }
  /// Op counts by name as generated, and after conorm + dce.
  std::map<std::string, long> OpsBefore, OpsAfter;
  /// conorm sites (Listing 1a triples) and ops dce must erase.
  unsigned Triples = 0;
  unsigned DeadOps = 0;
  /// Op name the mutation's diagnostic must name.
  std::string MutatedOp;
  /// Rendered diagnostics of the oracle (invalid cases only).
  std::string ExpectedDiags;
};

size_t totalOps(const std::map<std::string, long> &Ops);

/// A module of \p NumFunctions isolated std.func functions totalling about
/// \p TargetBytes of text, built from Listing 1a norm/norm/mulf triples,
/// cmath.mul chains, arith/complex/math arithmetic, cmath.create_constant
/// with fresh float constants, and region ops with block arguments
/// (scf.for, scf.if, cmath.range_loop).
ModuleCase generateModule(Rng &R, std::string Name, size_t TargetBytes,
                          unsigned NumFunctions, Mutation Mut);

/// Listing 1a with a distinct cmath.create_constant feeding it, so that
/// every request uniques new float attributes.
ModuleCase generateSmall(Rng &R, std::string Name, Mutation Mut);

/// The texts of the bundled dialect files, in load order.
std::vector<std::pair<std::string, std::string>> bundledDialects();

/// Loads the corpus (with its native hooks) and/or the bundled dialects
/// into \p Ctx. Returns the loaded modules, empty on failure.
std::vector<std::unique_ptr<irdl::IRDLModule>>
loadDialects(irdl::IRContext &Ctx, irdl::SourceMgr &SrcMgr,
             irdl::DiagnosticEngine &Diags, bool WithCorpus,
             const std::string &CorpusText);

/// The independent oracle: a private context with the same dialects as
/// the workload, parsing and verifying through the tree interpreter at
/// one thread.
class Oracle {
public:
  Oracle(bool WithCorpus, const std::string &CorpusText);
  ~Oracle();
  /// Parses \p C, checks its op counts against the generator's, verifies
  /// it and checks the verdict against the mutation. For an invalid case
  /// it stores the rendered diagnostics in C.ExpectedDiags; with
  /// \p ServeStyle they carry the trailing pipeline error that irdl_opt and
  /// irdl_serve append. Returns false with \p Why on any disagreement.
  bool check(ModuleCase &C, bool ServeStyle, std::string &Why);

private:
  std::unique_ptr<irdl::IRContext> Ctx;
  irdl::SourceMgr SrcMgr;
  std::vector<std::unique_ptr<irdl::IRDLModule>> Loaded;
};

/// Op counts by name of every op under \p Root, \p Root included.
std::map<std::string, long> countOps(irdl::Operation *Root);

} // namespace e2e

#endif // E2EBENCH_GENERATOR_H
