//===- Pipeline.cpp - The Listing 1 pipeline the workloads drive ----------===//

#include "Pipeline.h"

#include "ir/Operation.h"
#include "ir/Region.h"
#include "support/Metrics.h"

using namespace e2e;
using namespace irdl;

std::atomic<bool> ConormCounts::Enabled{false};
std::atomic<uint64_t> ConormCounts::Attempted{0};
std::atomic<uint64_t> ConormCounts::Applied{0};

namespace {

/// Listing 1: norm(p) * norm(q) -> norm(p * q), as irdl_opt's conorm.
struct ConormPattern : RewritePattern {
  ConormPattern() : RewritePattern("std.mulf") {}

  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    bool Count = ConormCounts::Enabled.load(std::memory_order_relaxed);
    if (Count)
      ConormCounts::Attempted.fetch_add(1, std::memory_order_relaxed);
    Operation *L = Op->getOperand(0).getDefiningOp();
    Operation *R = Op->getOperand(1).getDefiningOp();
    auto IsNorm = [](Operation *N) {
      return N && N->getName().str() == "cmath.norm";
    };
    if (!IsNorm(L) || !IsNorm(R) ||
        L->getOperand(0).getType() != R->getOperand(0).getType())
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState MulState(*Ctx, Ctx->resolveOpDef("cmath.mul"),
                            Op->getLoc());
    MulState.Operands = {L->getOperand(0), R->getOperand(0)};
    MulState.ResultTypes = {L->getOperand(0).getType()};
    Operation *Mul = Rewriter.createOp(MulState);
    OperationState NormState(*Ctx, Ctx->resolveOpDef("cmath.norm"),
                             Op->getLoc());
    NormState.Operands = {Mul->getResult(0)};
    NormState.ResultTypes = {Op->getResult(0).getType()};
    Operation *Norm = Rewriter.createOp(NormState);
    Rewriter.replaceOp(Op, {Norm->getResult(0)});
    if (Count)
      ConormCounts::Applied.fetch_add(1, std::memory_order_relaxed);
    return success();
  }
};

} // namespace

std::unique_ptr<FunctionPass> e2e::makeConormPass(IRContext &Ctx) {
  auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
  Patterns->add<ConormPattern>();
  return std::make_unique<LambdaFunctionPass>(
      "conorm", [Patterns](Operation *Func, DiagnosticEngine &) {
        applyPatternsGreedily(Func, *Patterns);
        return success();
      });
}

LibraryCounters LibraryCounters::read() {
  MetricsRegistry &Reg = MetricsRegistry::instance();
  LibraryCounters C;
  C.MemoHits = Reg.getCounter("irdl_constraint_memo_hits_total", "").get();
  C.MemoMisses =
      Reg.getCounter("irdl_constraint_memo_misses_total", "").get();
  C.PoolTasks = Reg.getCounter("irdl_threadpool_tasks_total", "").get();
  C.PoolBusyNs = Reg.getCounter("irdl_threadpool_busy_ns_total", "").get();
  C.ArenaBytesLive = Reg.getGauge("ir_arena_bytes_live", "").get();
  return C;
}
