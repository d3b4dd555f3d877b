//===- satmbench/main.cpp - SATM benchmark driver entry point ------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints one JSON object (every metric it measured,
// the check verdict and run facts) as the last line of standard output.
// satmbench/run.py builds this binary, runs it, and reduces that object to
// the benchmark's result line. Usage:
//
//   satmbench --workload=kv_durable_mix|kv_nt_bigset|wire_zipf
//             [--seed=N] [--seconds=S] [--trace=0|1] [--workdir=DIR]
//
// --trace=1 turns on the benchmark-side spans (and the STM's SATM_TRACE
// event rings); the spans are written to DIR/spans-<workload>.tsv.
//
// The workloads re-run this binary with --recover=WAL_DIR (plus --shards,
// --capacity, --result-fd and, when the recovered store is to be checked,
// --image) to time each recovery in a fresh process.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace satmbench;

int main(int argc, char **argv) {
  Options O;
  satm::kv::Wal::Config RecoverWal;
  satm::kv::StoreConfig RecoverStore;
  std::string Image;
  int ResultFd = -1;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) ? nullptr : A + N;
    };
    const char *V;
    if ((V = Val("--workload=")))
      O.Workload = V;
    else if ((V = Val("--seed=")))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if ((V = Val("--seconds=")))
      O.Seconds = std::atof(V);
    else if ((V = Val("--trace=")))
      O.Trace = std::atoi(V) != 0;
    else if ((V = Val("--workdir=")))
      O.WorkDir = V;
    else if ((V = Val("--recover=")))
      RecoverWal.Dir = V;
    else if ((V = Val("--shards=")))
      RecoverWal.Shards = RecoverStore.Shards = uint32_t(std::atoi(V));
    else if ((V = Val("--capacity=")))
      RecoverStore.CapacityPerShard = uint32_t(std::atoi(V));
    else if ((V = Val("--image=")))
      Image = V;
    else if ((V = Val("--result-fd=")))
      ResultFd = std::atoi(V);
    else {
      std::fprintf(stderr,
                   "usage: satmbench --workload=NAME [--seed=N] "
                   "[--seconds=S] [--trace=0|1] [--workdir=DIR]\n");
      return 2;
    }
  }
  if (!RecoverWal.Dir.empty())
    return recoverMain(RecoverWal, RecoverStore, Image, ResultFd);
  if (O.Seconds <= 0) {
    std::fprintf(stderr, "satmbench: --seconds must be positive\n");
    return 2;
  }
  std::error_code Ec;
  std::filesystem::create_directories(O.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "satmbench: cannot create %s: %s\n",
                 O.WorkDir.c_str(), Ec.message().c_str());
    return 2;
  }

  Result R;
  if (O.Workload == "kv_durable_mix")
    R = runKvDurableMix(O);
  else if (O.Workload == "kv_nt_bigset")
    R = runKvNtBigset(O);
  else if (O.Workload == "wire_zipf")
    R = runWireZipf(O);
  else {
    std::fprintf(stderr, "satmbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
