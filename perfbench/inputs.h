// perfbench/inputs.h -- the benchmark's own input generators. Every input
// is a function of --seed alone and is produced here, not by the library's
// src/gen, so a change to the program can never change what it is measured
// on.
//
//  * rmat / erdos_renyi: rank-2 master edge lists (flat endpoint pairs).
//  * Bag: a multiset of master indices with O(1) uniform random removal;
//    the churn scripts keep one bag of live edges and one of available
//    (not live) edges.
//  * exp_gap_ns: Poisson inter-arrival gaps for the open-loop workloads.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 0x1234567) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Master edge list: edge i is (ends[2i], ends[2i+1]).
struct Master {
  std::uint32_t n = 0;
  std::vector<std::uint32_t> ends;
  std::size_t size() const { return ends.size() / 2; }
};

// R-MAT (a=.57, b=.19, c=.19, d=.05), self-loops rejected, parallel edges
// kept.
inline Master rmat(unsigned scale, std::size_t m, std::uint64_t seed) {
  Rng rng(seed ^ 0x52'4D'41'54);
  Master g;
  g.n = 1u << scale;
  g.ends.reserve(2 * m);
  while (g.size() < m) {
    std::uint32_t u = 0, v = 0;
    for (unsigned b = 0; b < scale; ++b) {
      double p = rng.unit();
      u <<= 1;
      v <<= 1;
      if (p >= 0.95) {
        u |= 1;
        v |= 1;
      } else if (p >= 0.76) {
        u |= 1;
      } else if (p >= 0.57) {
        v |= 1;
      }
    }
    if (u == v) continue;
    g.ends.push_back(u);
    g.ends.push_back(v);
  }
  return g;
}

// m uniform edges over n vertices, self-loops rejected.
inline Master erdos_renyi(std::uint32_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed ^ 0x45'52);
  Master g;
  g.n = n;
  g.ends.reserve(2 * m);
  while (g.size() < m) {
    auto u = static_cast<std::uint32_t>(rng.below(n));
    auto v = static_cast<std::uint32_t>(rng.below(n));
    if (u == v) continue;
    g.ends.push_back(u);
    g.ends.push_back(v);
  }
  return g;
}

class Bag {
 public:
  void push(std::uint32_t x) { v_.push_back(x); }
  std::uint32_t take(Rng& rng) {
    std::size_t j = rng.below(v_.size());
    std::swap(v_[j], v_.back());
    std::uint32_t x = v_.back();
    v_.pop_back();
    return x;
  }
  std::size_t size() const { return v_.size(); }

 private:
  std::vector<std::uint32_t> v_;
};

// The churn state shared by all four workloads: a random half of the
// master is live after the prefill, the rest is available; each later
// update inserts a random available edge or deletes a random live one.
struct Churn {
  Bag live, avail;
  std::vector<std::uint32_t> prefill;  // master indices, insertion order

  Churn(std::size_t m, Rng& rng) {
    std::vector<std::uint32_t> order(m);
    for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = m; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    prefill.assign(order.begin(), order.begin() + m / 2);
    for (std::size_t i = 0; i < m; ++i)
      (i < m / 2 ? live : avail).push(order[i]);
  }

  // Next batch of k updates, all inserts or all deletes (a fair coin while
  // both bags hold k edges); `out` receives the master indices.
  bool batch(Rng& rng, std::size_t k, std::vector<std::uint32_t>& out) {
    bool ins = live.size() < k || (avail.size() >= k && rng.unit() < 0.5);
    out.clear();
    for (std::size_t i = 0; i < k; ++i) out.push_back((ins ? avail : live).take(rng));
    for (std::uint32_t x : out) (ins ? live : avail).push(x);
    return ins;
  }

  // Next single update: insert (true) of an available edge or delete of a
  // live one, with probability one half each while both are possible.
  bool next(Rng& rng, std::uint32_t* idx) {
    bool ins = live.size() == 0 || (avail.size() != 0 && rng.unit() < 0.5);
    if (ins) {
      *idx = avail.take(rng);
      live.push(*idx);
    } else {
      *idx = live.take(rng);
      avail.push(*idx);
    }
    return ins;
  }
};

// Poisson arrivals at `rate` per second: one exponential gap.
inline double exp_gap_ns(Rng& rng, double rate) {
  double u = rng.unit();
  if (u < 1e-12) u = 1e-12;
  return -std::log(u) / rate * 1e9;
}

}  // namespace perfbench
