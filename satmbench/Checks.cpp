//===- satmbench/Checks.cpp - Output checks of the SATM benchmark --------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

using namespace satmbench;

std::vector<Word> satmbench::readAll(const satm::kv::Store &S, uint64_t N) {
  std::vector<Word> Out(N, satm::kv::Store::Tombstone);
  for (uint64_t K = 0; K < N; ++K) {
    Word V;
    if (S.get(K, V))
      Out[K] = V;
  }
  return Out;
}

uint64_t satmbench::compareImages(const std::vector<Word> &Live,
                                  const std::vector<Word> &Recovered,
                                  uint64_t *FirstBad) {
  uint64_t Bad = 0;
  const size_t N = Live.size() > Recovered.size() ? Live.size()
                                                  : Recovered.size();
  for (size_t K = 0; K < N; ++K) {
    bool Same = K < Live.size() && K < Recovered.size() &&
                Live[K] == Recovered[K];
    if (Same)
      continue;
    if (Bad++ == 0 && FirstBad)
      *FirstBad = K;
  }
  return Bad;
}

bool AnswerLedger::sent(uint64_t Cid) {
  if (Cid < Next)
    return false;
  if (Window.empty())
    Base = Cid;
  // Ids skipped between sends were never issued: hold them closed.
  Window.resize(size_t(Cid - Base), 0);
  Window.push_back(1);
  Next = Cid + 1;
  ++Open;
  return true;
}

bool AnswerLedger::answered(uint64_t Cid) {
  if (Cid < Base || Cid - Base >= Window.size() || !Window[Cid - Base]) {
    ++Bad;
    return false;
  }
  Window[Cid - Base] = 0;
  --Open;
  while (!Window.empty() && !Window.front()) {
    Window.pop_front();
    ++Base;
  }
  return true;
}
