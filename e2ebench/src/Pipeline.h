//===- Pipeline.h - The Listing 1 pipeline the workloads drive ---*- C++ -*-===//
///
/// The conorm peephole of Listing 1 (as in irdl_opt), run per function so
/// that it parallelises with --mt, the library's dce pass, and a snapshot
/// of the existing library counters the traced run reads.
///
//===----------------------------------------------------------------------===//
#ifndef E2EBENCH_PIPELINE_H
#define E2EBENCH_PIPELINE_H

#include "ir/Pass.h"

#include <atomic>

namespace e2e {

/// Counts of the benchmark's own conorm pattern: attempts (matchAndRewrite
/// calls) and applications. Counted only while enabled.
struct ConormCounts {
  static std::atomic<bool> Enabled;
  static std::atomic<uint64_t> Attempted;
  static std::atomic<uint64_t> Applied;
};

/// conorm: greedy rewriting with the Listing 1 pattern, one function at a
/// time (on the thread pool when --mt > 1).
std::unique_ptr<irdl::FunctionPass> makeConormPass(irdl::IRContext &Ctx);

/// The existing library counters the traced run reads. Reading them
/// changes nothing; they only move while metricsEnabled() is on.
struct LibraryCounters {
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t PoolTasks = 0;
  uint64_t PoolBusyNs = 0;
  int64_t ArenaBytesLive = 0;
  static LibraryCounters read();
};

} // namespace e2e

#endif // E2EBENCH_PIPELINE_H
