//===- main.cpp - e2ebench command line -----------------------------------===//
///
/// Usage:
///   e2ebench --workload batch-large|cold-start|serve-mixed --seed N
///            --seconds S --trace 0|1
///
/// Prints one JSON result as the last line of stdout: end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1. Exits 1 when any
/// output differs from its known answer, 2 on a usage or set-up error.
/// irdl_serve is expected next to this binary.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <iostream>
#include <string>
#include <unistd.h>

using namespace e2e;

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc) {
      std::cerr << "e2ebench: missing value after " << Arg << "\n";
      return 2;
    }
    std::string Value = argv[++I];
    try {
      if (Arg == "--workload")
        O.Workload = Value;
      else if (Arg == "--seed")
        O.Seed = std::stoull(Value);
      else if (Arg == "--seconds")
        O.Seconds = std::stod(Value);
      else if (Arg == "--trace")
        O.Trace = std::stoi(Value) != 0;
      else {
        std::cerr << "e2ebench: unknown option " << Arg << "\n";
        return 2;
      }
    } catch (const std::exception &) {
      std::cerr << "e2ebench: bad value '" << Value << "' for " << Arg << "\n";
      return 2;
    }
  }
  if (O.Seconds <= 0) {
    std::cerr << "e2ebench: --seconds must be positive\n";
    return 2;
  }
  char Self[4096];
  ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (N > 0) {
    std::string Path(Self, N);
    O.ServeBinary = Path.substr(0, Path.rfind('/') + 1) + "irdl_serve";
  }
  if (O.Workload == "batch-large")
    return runBatchLarge(O);
  if (O.Workload == "cold-start")
    return runColdStart(O);
  if (O.Workload == "serve-mixed")
    return runServeMixed(O);
  std::cerr << "e2ebench: unknown workload '" << O.Workload
            << "' (have batch-large, cold-start, serve-mixed)\n";
  return 2;
}
