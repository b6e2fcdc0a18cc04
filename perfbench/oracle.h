// perfbench/oracle.h -- the benchmark's correctness oracle. It keeps its
// own mirror of the live edges, built only from the generated script and
// from what the program handed back for it (edge ids from insert_edges,
// tickets from submit_insert), and checks the program's outputs against
// that mirror -- never against the program's own view of its state.
//
// Every check returns an empty string when it passes and a description of
// the first violation otherwise; oracle_test.cpp feeds each one a broken
// input to show it can fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

inline constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

// The live edges as the script says they are: master index -> the edge id
// the program returned for it, kNone while the edge is not live.
struct Mirror {
  const Master* g = nullptr;
  std::vector<std::uint32_t> id_of;
  std::size_t live = 0;

  explicit Mirror(const Master& master)
      : g(&master), id_of(master.size(), kNone) {}

  void insert(std::uint32_t idx, std::uint32_t id) {
    live += id_of[idx] == kNone;
    id_of[idx] = id;
  }
  void erase(std::uint32_t idx) {
    live -= id_of[idx] != kNone;
    id_of[idx] = kNone;
  }
};

// The matching `matched` (edge ids) against the mirror: every matched edge
// is live, matched edges share no vertex, every live edge has a matched
// endpoint, and the program's live-edge count equals the mirror's.
inline std::string check_matching(const Mirror& mir,
                                  std::span<const std::uint32_t> matched,
                                  std::size_t program_live) {
  const Master& g = *mir.g;
  if (program_live != mir.live)
    return "program reports " + std::to_string(program_live) +
           " live edges, the script leaves " + std::to_string(mir.live);
  std::vector<std::uint32_t> owner;
  for (std::size_t i = 0; i < mir.id_of.size(); ++i) {
    std::uint32_t id = mir.id_of[i];
    if (id == kNone) continue;
    if (id >= owner.size()) owner.resize(std::size_t(id) + 1, kNone);
    if (owner[id] != kNone)
      return "live edges " + std::to_string(owner[id]) + " and " +
             std::to_string(i) + " share edge id " + std::to_string(id);
    owner[id] = static_cast<std::uint32_t>(i);
  }
  std::vector<char> covered(g.n, 0);
  for (std::uint32_t id : matched) {
    if (id >= owner.size() || owner[id] == kNone)
      return "matched edge id " + std::to_string(id) + " is not live";
    std::uint32_t u = g.ends[2 * std::size_t(owner[id])];
    std::uint32_t v = g.ends[2 * std::size_t(owner[id]) + 1];
    if (covered[u] || covered[v])
      return "matched edge id " + std::to_string(id) +
             " shares a vertex with another matched edge";
    covered[u] = covered[v] = 1;
  }
  for (std::size_t i = 0; i < mir.id_of.size(); ++i) {
    if (mir.id_of[i] == kNone) continue;
    if (!covered[g.ends[2 * i]] && !covered[g.ends[2 * i + 1]])
      return "live edge " + std::to_string(i) +
             " has no matched endpoint: matching not maximal";
  }
  return {};
}

// The service's published snapshot against the matcher it publishes.
inline std::string check_snapshot(std::span<const std::uint32_t> snapshot,
                                  std::span<const std::uint32_t> matcher) {
  if (snapshot.size() != matcher.size()) return "snapshot size differs";
  for (std::size_t v = 0; v < snapshot.size(); ++v)
    if (snapshot[v] != matcher[v])
      return "snapshot match_of(" + std::to_string(v) + ") = " +
             std::to_string(snapshot[v]) + ", matcher says " +
             std::to_string(matcher[v]);
  return {};
}

// Every submitted update is accounted for exactly once.
struct Conservation {
  std::uint64_t submitted = 0;
  std::uint64_t applied_inserts = 0;
  std::uint64_t applied_deletes = 0;
  std::uint64_t dropped_deletes = 0;
  std::uint64_t annihilated = 0;  // insert+delete pairs: two updates each
  std::uint64_t deduped_deletes = 0;
};

inline std::string check_conservation(const Conservation& c) {
  std::uint64_t sum = c.applied_inserts + c.applied_deletes +
                      c.dropped_deletes + 2 * c.annihilated +
                      c.deduped_deletes;
  if (sum != c.submitted)
    return "submitted " + std::to_string(c.submitted) +
           " updates, accounted for " + std::to_string(sum);
  return {};
}

// A service recovered from the journal directory against the one stopped.
inline std::string check_recovery(std::uint64_t fp_stopped,
                                  std::uint64_t fp_recovered,
                                  std::uint64_t epoch_mismatches) {
  if (epoch_mismatches != 0)
    return std::to_string(epoch_mismatches) + " epoch mismatches in replay";
  if (fp_stopped != fp_recovered)
    return "recovered fingerprint differs from the stopped service's";
  return {};
}

}  // namespace perfbench
