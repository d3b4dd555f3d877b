//===- satmbench/tests/checks_test.cpp - The output checks reject damage --===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Each output check of the benchmark (Checks.h) is run once on a clean
// input, which it must accept, and once on a corrupted one, which it must
// reject. Usage: satmbench_checks_test [SCRATCH_DIR]. Exit status 0 when
// every case behaves.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "kv/Store.h"
#include "kv/Wal.h"
#include "stm/Config.h"

#include <cstdio>
#include <filesystem>
#include <string>

using namespace satm;
using namespace satmbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *Name) {
  std::printf("%s %s\n", Cond ? "PASS" : "FAIL", Name);
  Failures += !Cond;
}

kv::StoreConfig smallStore() {
  kv::StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 64;
  return KC;
}

void testGetHit() {
  rt::Heap H;
  kv::Store S(H, smallStore());
  S.insert(5, tagValue(5, 1));
  S.insert(6, tagValue(7, 1)); // Corrupted: key 6 holds key 7's value.
  Word V = 0;
  bool F = S.get(5, V);
  expect(getHitOk(F, 5, V), "get_hit accepts a hit with its own value");
  F = S.get(6, V);
  expect(!getHitOk(F, 6, V), "get_hit rejects another key's value");
  F = S.get(9, V);
  expect(!getHitOk(F, 9, V), "get_hit rejects a miss (kv_nt_bigset)");
}

void testBatchRead() {
  rt::Heap H;
  kv::Store S(H, smallStore());
  for (Word K = 0; K < 8; ++K)
    S.insert(K, tagValue(K, 10));
  Word Keys[4] = {1, 2, 3, 4}, Vals[4];
  size_t Found = S.multiGet(Keys, 4, Vals);
  expect(batchReadOk(Found, Keys, Vals, 4), "batch_read accepts a clean read");
  Vals[2] = tagValue(5, 10);
  expect(!batchReadOk(Found, Keys, Vals, 4),
         "batch_read rejects a swapped value");
  Word Missing[2] = {1, 40}, Out[2];
  Found = S.multiGet(Missing, 2, Out);
  expect(!batchReadOk(Found, Missing, Out, 2),
         "batch_read rejects a missing key");
}

void testRecoveredImage(const std::string &Dir) {
  stm::Config C;
  C.DeaEnabled = true;
  stm::ScopedConfig SC(C);
  const uint64_t N = 32;
  kv::Wal::Config WC;
  WC.Dir = Dir + "/checks_test-wal";
  WC.Shards = 4;
  std::filesystem::remove_all(WC.Dir);
  std::vector<Word> Live;
  {
    rt::Heap H;
    kv::Store S(H, smallStore());
    for (Word K = 0; K < N; ++K)
      S.insert(K, tagValue(K, 1));
    kv::Wal W(WC);
    W.start();
    S.attachWal(&W);
    for (Word K = 0; K < N; K += 3)
      S.put(K, tagValue(K, 100 + K));
    Word Pair[2] = {1, 2};
    S.rmwAdd(Pair, 2, 5);
    S.attachWal(nullptr);
    W.stop();
    Live = readAll(S, N);
  }
  rt::Heap RH;
  kv::Store RS(RH, smallStore());
  for (Word K = 0; K < N; ++K)
    RS.insert(K, tagValue(K, 1));
  kv::Wal RW(WC);
  kv::RecoveryStats Rec = RW.recover(RS);
  uint64_t First = 0;
  expect(Rec.ApplyFailures == 0 &&
             compareImages(Live, readAll(RS, N), &First) == 0,
         "store_compare accepts a faithful recovery");
  // Corrupt one recovered key: ApplyFailures stays 0, the comparison
  // must still notice.
  RS.put(7, tagValue(7, 999));
  uint64_t Bad = compareImages(Live, readAll(RS, N), &First);
  expect(Rec.ApplyFailures == 0 && Bad == 1 && First == 7,
         "store_compare rejects a corrupted recovered key");
  std::vector<Word> Short = Live;
  Short.pop_back();
  expect(compareImages(Live, Short, &First) == 1 && First == N - 1,
         "store_compare rejects a lost key");
  std::filesystem::remove_all(WC.Dir);
}

void testLedger() {
  AnswerLedger L;
  bool Ok = L.sent(1) && L.sent(2) && L.sent(3);
  Ok = Ok && L.answered(2) && L.answered(1) && L.answered(3);
  expect(Ok && L.outstanding() == 0 && L.violations() == 0,
         "answer_ledger accepts every id answered once, out of order");
  expect(!L.answered(2) && L.violations() == 1,
         "answer_ledger rejects a duplicate answer");
  expect(!L.answered(99) && L.violations() == 2,
         "answer_ledger rejects an id never sent");
  L.sent(4);
  L.sent(6);
  L.answered(6);
  expect(L.outstanding() == 1, "answer_ledger reports an unanswered id");
  expect(!L.sent(5), "answer_ledger rejects a reused id");
}

} // namespace

int main(int argc, char **argv) {
  std::string Dir = argc > 1 ? argv[1] : ".";
  testGetHit();
  testBatchRead();
  testRecoveredImage(Dir);
  testLedger();
  std::printf("%s: %d failing case(s)\n", Failures ? "FAILED" : "OK",
              Failures);
  return Failures ? 1 : 0;
}
