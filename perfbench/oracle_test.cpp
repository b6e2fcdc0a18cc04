// perfbench/oracle_test.cpp -- shows that each oracle check can fail: it
// feeds oracle.h one valid input (which must pass) and one broken input per
// check (each of which must be rejected). Exit 0 when every case behaves,
// 1 otherwise; run.py runs it before every benchmark run.
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void expect(bool pass_expected, const std::string& verdict, const char* name) {
  bool passed = verdict.empty();
  if (passed != pass_expected) {
    ++failures;
    std::fprintf(stderr, "oracle self-test FAILED: %s (%s)\n", name,
                 passed ? "accepted a broken input" : verdict.c_str());
  }
}

}  // namespace

int main() {
  // Path 0-1-2-3-4 (edges a=0-1, b=1-2, c=2-3, d=3-4) plus e=1-3, with
  // master edge i given edge id 10 + i.
  pb::Master g;
  g.n = 5;
  g.ends = {0, 1, 1, 2, 2, 3, 3, 4, 1, 3};
  pb::Mirror mir(g);
  for (std::uint32_t i = 0; i < 5; ++i) mir.insert(i, 10 + i);

  // {a, c} covers every edge, and d=3-4 through vertex 3.
  std::vector<std::uint32_t> good = {10, 12};
  expect(true, pb::check_matching(mir, good, 5), "valid maximal matching");

  std::vector<std::uint32_t> uncovered = {10};  // c=2-3 and d=3-4 uncovered
  expect(false, pb::check_matching(mir, uncovered, 5), "live edge left uncovered");

  std::vector<std::uint32_t> shared = {10, 11, 13};  // a and b share vertex 1
  expect(false, pb::check_matching(mir, shared, 5), "matched edges share a vertex");

  std::vector<std::uint32_t> dead = {10, 12, 99};  // id 99 was never live
  expect(false, pb::check_matching(mir, dead, 5), "matched edge not live");

  pb::Mirror deleted = mir;  // c deleted by the script but still matched
  deleted.erase(2);
  expect(false, pb::check_matching(deleted, good, 4), "matched edge deleted");

  expect(false, pb::check_matching(mir, good, 4), "live count disagrees");

  pb::Mirror twice = mir;  // two live edges handed the same id
  twice.insert(4, 10);
  expect(false, pb::check_matching(twice, good, 5), "two live edges, one id");

  pb::Conservation c;
  c.submitted = 20;
  c.applied_inserts = 9;
  c.applied_deletes = 5;
  c.dropped_deletes = 1;
  c.annihilated = 2;
  c.deduped_deletes = 1;
  expect(true, pb::check_conservation(c), "conservation holds");
  c.applied_deletes = 4;
  expect(false, pb::check_conservation(c), "one update missing from the sum");

  std::vector<std::uint32_t> snap = {10, 10, 12, 12, pb::kNone};
  std::vector<std::uint32_t> live = snap;
  expect(true, pb::check_snapshot(snap, live), "snapshot equal");
  live[4] = 13;
  expect(false, pb::check_snapshot(snap, live), "snapshot stale at one vertex");

  expect(true, pb::check_recovery(7, 7, 0), "recovery bit-identical");
  expect(false, pb::check_recovery(7, 8, 0), "recovered fingerprint differs");
  expect(false, pb::check_recovery(7, 7, 1), "epoch mismatch in replay");

  if (failures == 0) std::printf("oracle self-test: all cases behave\n");
  return failures == 0 ? 0 : 1;
}
