// perfbench/harness.cpp -- one benchmark run of one workload.
//
//   perfbench_harness --workload W --seed N --seconds S [--trace 0|1]
//                     [--scratch DIR] [--trace-out FILE]
//
// Workloads (README.md gives the make-up and why each was chosen):
//   churn_bulk     closed loop, DynamicMatcher, R-MAT scale 21, 65,536/batch
//   churn_small    closed loop, DynamicMatcher, Erdos-Renyi 2^18, 16/batch
//   serve_poisson  open loop, MatchService, Erdos-Renyi 2^20, Poisson 1 M/s
//   serve_durable  serve_poisson plus the async journal, then recovery
//
// Everything runs on this one producer thread and goes through the public
// API only. Every input comes from inputs.h and --seed; every output is
// checked by oracle.h against the script's own mirror of the live edges.
// The last line of stdout is one JSON object: correct, attempted, failed,
// error, and every metric (end-to-end and per-layer) with its unit.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "graph/edge_batch.h"
#include "parallel/cost_model.h"
#include "serve/checkpoint.h"
#include "serve/service.h"

#include "inputs.h"
#include "oracle.h"
#include "trace.h"

namespace pb = perfbench;
using parmatch::graph::EdgeId;
using parmatch::graph::VertexId;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = "perfbench-journal";
  std::string trace_out;
};

// Metrics in output order; a metric set twice keeps its last value.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    for (auto& m : ms_)
      if (m.name == name) {
        m.value = value;
        return;
      }
    ms_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const auto& m : ms_)
      if (m.name == name) return m.value;
    return 0;
  }
  std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < ms_.size(); ++i) {
      double v = std::isfinite(ms_[i].value) ? ms_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += (i ? ",\"" : "\"") + ms_[i].name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + ms_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct M {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<M> ms_;
};

struct Run {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // first oracle violation; empty when correct

  void check(const std::string& what, const std::string& violation) {
    if (error.empty() && !violation.empty()) error = what + ": " + violation;
  }
};

// Every per-layer metric, reported by every workload: 0 where the layer
// does not run on the workload (or, for the per-batch round counts on the
// serve workloads, where no outside reading exists).
void declare_layer_metrics(Metrics& m) {
  for (const char* n :
       {"dyn.insert_s", "dyn.delete_s", "trace.dyn_self_s", "trace.serve_self_s",
        "trace.durability_self_s", "trace.harness_self_s", "recovery.ckpt_load_s",
        "recovery.total_s"})
    m.set(n, 0, "s");
  for (const char* n :
       {"dyn.work_per_upd", "dyn.samples_per_upd", "dyn.steal_rounds_per_batch",
        "dyn.settle_rounds_per_batch", "dyn.spec_retries_per_batch",
        "dyn.depth_per_batch", "dyn.phases_per_batch", "dyn.stolen_per_kupd",
        "dyn.bloated_per_kupd", "parallel.fused_share",
        "serve.window_mean_updates"})
    m.set(n, 0, "ratio");
  m.set("dyn.batch_p99_us", 0, "us");
  m.set("parallel.cutover_items", 0, "count");
  m.set("graph.bytes_per_live_edge", 0, "B");
  m.set("serve.submit_p50_ns", 0, "ns");
  for (const char* n : {"serve.submit_max_us", "serve.commit_p90_us", "serve.commit_p99_us",
                        "serve.commit_max_us", "serve.stats_p50_us",
                        "serve.gen_late_p99_us", "trace.commit_p50_us"})
    m.set(n, 0, "us");
  for (const char* n :
       {"serve.windows", "serve.flush_deadline", "serve.flush_cost",
        "serve.flush_full", "serve.flush_drain", "serve.queue_hwm",
        "journal.records", "journal.syncs", "checkpoint.written",
        "checkpoint.skipped", "recovery.replayed_windows", "trace.spans"})
    m.set(n, 0, "count");
  m.set("journal.bytes_per_upd", 0, "B");
  m.set("checkpoint.export_ms", 0, "ms");
  m.set("checkpoint.file_mb", 0, "MB");
  m.set("trace.upd_per_s", 0, "upd/s");
}

double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kb / 1024.0;
}

// Exact order statistic (nearest rank) of a sample; reorders `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

void add_edge(parmatch::graph::EdgeBatch& eb, const pb::Master& g, std::uint32_t i) {
  eb.add({g.ends[2 * std::size_t(i)], g.ends[2 * std::size_t(i) + 1]});
}

// ---- closed loop: churn_bulk / churn_small ----------------------------

struct ChurnSpec {
  bool rmat;
  unsigned log_n;
  std::size_t batch;          // updates per timed batch
  std::size_t count_batches;  // seed-determined counts and peak RSS cover
                              // set-up plus these batches
  std::size_t check_every;    // oracle check every this many batches
};

constexpr std::size_t kPrefillBatch = 65536;

void run_churn(const ChurnSpec& sp, const Args& a, pb::Tracer& tr, Run& run) {
  namespace dyn = parmatch::dyn;
  pb::Rng rng(a.seed);
  const std::size_t n = std::size_t(1) << sp.log_n;
  pb::Master g = sp.rmat ? pb::rmat(sp.log_n, 3 * n, a.seed)
                         : pb::erdos_renyi(static_cast<std::uint32_t>(n), 3 * n, a.seed);
  pb::Churn churn(g.size(), rng);
  pb::Mirror mir(g);
  std::vector<parmatch::graph::EdgeBatch> prefill;
  for (std::size_t i = 0; i < churn.prefill.size(); ++i) {
    if (i % kPrefillBatch == 0) prefill.emplace_back();
    add_edge(prefill.back(), g, churn.prefill[i]);
  }

  // Set-up: construct the matcher and load half the master.
  std::uint64_t t_setup = pb::now_ns();
  tr.begin("setup", "harness");
  dyn::Config cfg;
  cfg.seed = a.seed;
  auto dm = std::make_unique<dyn::DynamicMatcher>(cfg);
  for (std::size_t b = 0, at = 0; b < prefill.size(); ++b) {
    pb::Tracer::Scope s(tr, "insert_edges", "dyn", b);
    auto ids = dm->insert_edges(prefill[b]);
    for (std::size_t i = 0; i < ids.size(); ++i) mir.insert(churn.prefill[at++], ids[i]);
  }
  tr.end();
  double setup_s = static_cast<double>(pb::now_ns() - t_setup) * 1e-9;
  prefill.clear();
  prefill.shrink_to_fit();

  auto verify = [&](const char* when) {
    pb::Tracer::Scope s(tr, "oracle", "harness");
    std::vector<EdgeId> m = dm->matching();
    run.check(when, pb::check_matching(mir, m, dm->pool().live_count()));
    if (m.size() != dm->matched_count())
      run.check(when, "matched_count() disagrees with matching()");
  };
  verify("after set-up");

  // Timed phase: whole batches until `seconds` have passed and the counted
  // prefix is complete.
  const dyn::CumulativeStats s0 = dm->cumulative_stats();
  dyn::CumulativeStats sk = s0;
  std::uint64_t depth = 0, phases = 0;
  std::vector<double> dur_us;
  double ins_s = 0, del_s = 0;
  // Throughput per tenth of the timed phase (updates over time inside the
  // batch calls); the median of the tenths is upd_per_s, so a burst of
  // outside load on the machine moves one tenth, not the figure.
  constexpr int kSlices = 10;
  std::vector<double> slice_upd(kSlices, 0), slice_s(kSlices, 0);
  double rss_mb = 0;
  parmatch::graph::EdgeBatch eb;
  std::vector<std::uint32_t> idx;
  std::vector<EdgeId> del;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
  tr.begin("timed", "harness");
  const std::uint64_t t_start = pb::now_ns();
  for (std::size_t b = 0;; ++b) {
    if (b >= sp.count_batches && pb::now_ns() - t_start >= budget_ns) break;
    bool ins = churn.batch(rng, sp.batch, idx);
    std::uint64_t t0 = 0, t1 = 0;
    if (ins) {
      eb.clear();
      for (std::uint32_t i : idx) add_edge(eb, g, i);
      t0 = pb::now_ns();
      tr.begin("insert_edges", "dyn", b);
      auto ids = dm->insert_edges(eb);
      tr.end();
      t1 = pb::now_ns();
      for (std::size_t i = 0; i < ids.size(); ++i) mir.insert(idx[i], ids[i]);
      ins_s += static_cast<double>(t1 - t0) * 1e-9;
    } else {
      del.clear();
      for (std::uint32_t i : idx) del.push_back(mir.id_of[i]);
      t0 = pb::now_ns();
      tr.begin("delete_edges", "dyn", b);
      dm->delete_edges(std::span<const EdgeId>(del));
      tr.end();
      t1 = pb::now_ns();
      for (std::uint32_t i : idx) mir.erase(i);
      del_s += static_cast<double>(t1 - t0) * 1e-9;
    }
    dur_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    run.attempted += sp.batch;
    std::size_t sl = static_cast<std::size_t>((t0 - t_start) * kSlices / budget_ns);
    sl = std::min<std::size_t>(sl, kSlices - 1);
    slice_upd[sl] += static_cast<double>(sp.batch);
    slice_s[sl] += static_cast<double>(t1 - t0) * 1e-9;
    if (b < sp.count_batches) {
      depth += dm->last_batch_stats().measured_depth;
      phases += dm->last_batch_stats().parallel_phases;
      if (b + 1 == sp.count_batches) {
        sk = dm->cumulative_stats();
        rss_mb = peak_rss_mb();
      }
    }
    if ((b + 1) % sp.check_every == 0) verify("during the timed phase");
  }
  tr.end();
  verify("after the timed phase");

  std::vector<double> per_slice;
  for (int i = 0; i < kSlices; ++i)
    if (slice_s[i] > 0) per_slice.push_back(slice_upd[i] / slice_s[i]);
  Metrics& m = run.metrics;
  m.set("upd_per_s", quantile(per_slice, 0.5), "upd/s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("commit_p50_us", quantile(dur_us, 0.50), "us");
  m.set("commit_p75_us", quantile(dur_us, 0.75), "us");
  m.set("setup_s", setup_s, "s");

  m.set("dyn.insert_s", ins_s, "s");
  m.set("dyn.delete_s", del_s, "s");
  // Tails need at least ten samples beyond them.
  if (dur_us.size() >= 1000) m.set("dyn.batch_p99_us", quantile(dur_us, 0.99), "us");
  const double ku = static_cast<double>(sp.count_batches * sp.batch);
  const double kb = static_cast<double>(sp.count_batches);
  auto d = [&](std::size_t dyn::CumulativeStats::*f) {
    return static_cast<double>(sk.*f - s0.*f);
  };
  m.set("dyn.work_per_upd", d(&dyn::CumulativeStats::work_units) / ku, "ratio");
  m.set("dyn.samples_per_upd", d(&dyn::CumulativeStats::samples_created) / ku, "ratio");
  m.set("dyn.steal_rounds_per_batch", d(&dyn::CumulativeStats::steal_rounds) / kb, "ratio");
  m.set("dyn.settle_rounds_per_batch", d(&dyn::CumulativeStats::settle_rounds) / kb, "ratio");
  m.set("dyn.spec_retries_per_batch", d(&dyn::CumulativeStats::spec_retries) / kb, "ratio");
  m.set("dyn.depth_per_batch", static_cast<double>(depth) / kb, "ratio");
  m.set("dyn.phases_per_batch", static_cast<double>(phases) / kb, "ratio");
  m.set("dyn.stolen_per_kupd", d(&dyn::CumulativeStats::stolen) * 1e3 / ku, "ratio");
  m.set("dyn.bloated_per_kupd", d(&dyn::CumulativeStats::bloated) * 1e3 / ku, "ratio");
  m.set("parallel.fused_share", d(&dyn::CumulativeStats::fused_batches) / kb, "ratio");
  m.set("graph.bytes_per_live_edge",
        static_cast<double>(dm->memory_bytes()) /
            static_cast<double>(std::max<std::size_t>(1, dm->pool().live_count())),
        "B");
}

// ---- open loop: serve_poisson / serve_durable -------------------------

constexpr unsigned kServeLogN = 20;
constexpr double kServeRate = 1e6;  // offered updates per second

using Service = parmatch::serve::MatchService;

// Rebuilds the mirror from the service's ticket table for the master edges
// the script leaves live, and checks the matching, the live count, the
// published snapshot and that deleted tickets map to no edge.
void verify_service(const Service& svc, const pb::Master& g,
                    const std::vector<char>& live,
                    const std::vector<std::uint64_t>& ticket, const char* when,
                    Run& run) {
  pb::Mirror mir(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (ticket[i] == Service::kShedTicket) continue;
    EdgeId id = svc.edge_of_ticket(ticket[i]);
    if (live[i]) {
      if (id == parmatch::graph::kInvalidEdge) {
        run.check(when, "live ticket " + std::to_string(ticket[i]) + " maps to no edge");
        return;
      }
      mir.insert(static_cast<std::uint32_t>(i), id);
    } else if (id != parmatch::graph::kInvalidEdge) {
      run.check(when, "deleted ticket " + std::to_string(ticket[i]) + " still maps to an edge");
      return;
    }
  }
  const auto& dm = svc.matcher();
  std::vector<EdgeId> m = dm.matching();
  run.check(when, pb::check_matching(mir, m, dm.pool().live_count()));
  std::vector<std::uint32_t> snap(g.n), mat(g.n);
  for (VertexId v = 0; v < g.n; ++v) {
    snap[v] = svc.match_of(v);
    mat[v] = dm.match_of(v);
  }
  run.check(when, pb::check_snapshot(snap, mat));
}

void run_serve(bool durable, const Args& a, pb::Tracer& tr, Run& run) {
  namespace serve = parmatch::serve;
  pb::Rng rng(a.seed);
  const std::uint32_t n = 1u << kServeLogN;
  pb::Master g = pb::erdos_renyi(n, 3 * std::size_t(n), a.seed);
  pb::Churn churn(g.size(), rng);
  std::vector<char> live(g.size(), 0);
  for (std::uint32_t i : churn.prefill) live[i] = 1;
  const std::vector<char> live_after_prefill = live;

  // The timed stream: N single updates (bit 31 = insert) and their
  // scheduled arrival offsets.
  const std::size_t N = static_cast<std::size_t>(kServeRate * a.seconds);
  std::vector<std::uint32_t> ops(N);
  std::vector<std::uint64_t> due(N);
  double t = 0;
  for (std::size_t i = 0; i < N; ++i) {
    std::uint32_t idx = 0;
    bool ins = churn.next(rng, &idx);
    live[idx] = ins;
    ops[i] = idx | (ins ? 0x8000'0000u : 0u);
    t += pb::exp_gap_ns(rng, kServeRate);
    due[i] = static_cast<std::uint64_t>(t);
  }
  std::vector<std::uint64_t> ticket(g.size(), Service::kShedTicket);
  std::vector<float> lat_us(N), late_us(N);
  std::vector<float> submit_ns(a.trace ? N : 0);

  serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  cfg.matcher.seed = a.seed;
  cfg.max_vertices = n;
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(a.scratch, ec);
    cfg.journal.policy = serve::JournalPolicy::kAsync;
    cfg.journal.dir = a.scratch;
  }

  // Set-up: construct the service, submit the prefill unpaced, drain.
  std::uint64_t t_setup = pb::now_ns();
  tr.begin("setup", "harness");
  std::unique_ptr<Service> svc;
  {
    pb::Tracer::Scope s(tr, "construct", "serve");
    svc = std::make_unique<Service>(cfg);
    svc->start();
  }
  for (std::uint32_t i : churn.prefill) {
    pb::Tracer::Scope s(tr, "submit_insert", "serve", i);
    ticket[i] = svc->submit_insert(g.ends[2 * std::size_t(i)], g.ends[2 * std::size_t(i) + 1]);
  }
  {
    pb::Tracer::Scope s(tr, "drain_until_idle", "serve");
    svc->drain_until_idle();
  }
  tr.end();
  double setup_s = static_cast<double>(pb::now_ns() - t_setup) * 1e-9;
  {
    pb::Tracer::Scope s(tr, "oracle", "harness");
    verify_service(*svc, g, live_after_prefill, ticket, "after set-up", run);
  }

  svc->reset_stats();
  const std::uint64_t done0 = svc->completed_updates();
  const std::uint64_t sub0 = svc->submitted_updates();
  const auto j0 = std::make_tuple(svc->journal().bytes(), svc->journal().records(),
                                  svc->journal().syncs());
  const std::uint64_t ck_w0 = svc->checkpoints_written(), ck_s0 = svc->checkpoints_skipped();
  const parmatch::dyn::CumulativeStats s0 = svc->matcher().cumulative_stats();

  // Timed phase: submit on schedule; stamp each commit when the producer
  // sees completed_updates() pass it (one lane, no shedding: completions
  // arrive in submission order).
  std::size_t stamped = 0;
  tr.begin("timed", "harness");
  const std::uint64_t t0 = pb::now_ns();
  auto poll = [&] {
    std::uint64_t c = svc->completed_updates() - done0;
    std::uint64_t now = pb::now_ns();
    for (; stamped < c && stamped < N; ++stamped)
      lat_us[stamped] = static_cast<float>(static_cast<double>(now - t0 - due[stamped]) * 1e-3);
    return now;
  };
  for (std::size_t i = 0; i < N; ++i) {
    std::uint64_t at = t0 + due[i];
    std::uint64_t now = poll();
    while (now < at) {
      // Far from the next arrival: give the core away, as a real client
      // waiting on its network would.
      if (at - now > 2000) std::this_thread::yield();
      now = poll();
    }
    late_us[i] = static_cast<float>(static_cast<double>(now - at) * 1e-3);
    std::uint32_t idx = ops[i] & 0x7FFF'FFFFu;
    std::uint64_t s_t0 = a.trace ? pb::now_ns() : 0;
    if (ops[i] & 0x8000'0000u) {
      pb::Tracer::Scope s(tr, "submit_insert", "serve", i);
      ticket[idx] = svc->submit_insert(g.ends[2 * std::size_t(idx)],
                                       g.ends[2 * std::size_t(idx) + 1]);
      if (ticket[idx] == Service::kShedTicket) ++run.failed;
    } else {
      pb::Tracer::Scope s(tr, "submit_delete", "serve", i);
      svc->submit_delete(ticket[idx]);
    }
    if (a.trace) submit_ns[i] = static_cast<float>(pb::now_ns() - s_t0);
  }
  std::uint64_t t_last = t0;
  while (stamped < N) t_last = poll();
  {
    pb::Tracer::Scope s(tr, "drain_until_idle", "serve");
    svc->drain_until_idle();
  }
  tr.end();
  run.attempted = N;
  {
    pb::Tracer::Scope s(tr, "stop", "serve");
    svc->stop();
  }

  tr.begin("verify", "harness");
  const serve::ServiceStats& st = svc->stats();
  pb::Conservation c;
  c.submitted = N;
  c.applied_inserts = st.applied_inserts;
  c.applied_deletes = st.applied_deletes;
  c.dropped_deletes = st.dropped_deletes;
  c.annihilated = st.annihilated;
  c.deduped_deletes = st.deduped_deletes;
  run.check("conservation", pb::check_conservation(c));
  if (svc->submitted_updates() - sub0 != N)
    run.check("conservation", "service counted " +
                                  std::to_string(svc->submitted_updates() - sub0) +
                                  " submissions, the script made " + std::to_string(N));
  verify_service(*svc, g, live, ticket, "after the timed phase", run);
  tr.end();

  Metrics& m = run.metrics;
  double lat_p50 = quantile(lat_us, 0.50);
  double upd_per_s = static_cast<double>(N) / (static_cast<double>(t_last - t0) * 1e-9);
  m.set("upd_per_s", upd_per_s, "upd/s");
  m.set("commit_p50_us", lat_p50, "us");
  m.set("commit_p75_us", quantile(lat_us, 0.75), "us");
  m.set("serve.commit_p90_us", quantile(lat_us, 0.90), "us");
  m.set("setup_s", setup_s, "s");
  m.set("serve.commit_p99_us", quantile(lat_us, 0.99), "us");
  m.set("serve.commit_max_us", *std::max_element(lat_us.begin(), lat_us.end()), "us");
  m.set("serve.gen_late_p99_us", quantile(late_us, 0.99), "us");
  if (a.trace) {
    m.set("serve.submit_max_us", *std::max_element(submit_ns.begin(), submit_ns.end()) * 1e-3, "us");
    m.set("serve.submit_p50_ns", quantile(submit_ns, 0.50), "ns");
  }
  m.set("serve.stats_p50_us", st.latency.quantile(0.50), "us");
  m.set("serve.window_mean_updates", st.mean_batch(), "ratio");
  m.set("serve.windows", static_cast<double>(st.batches), "count");
  m.set("serve.flush_deadline", static_cast<double>(st.flush_deadline), "count");
  m.set("serve.flush_cost", static_cast<double>(st.flush_cost), "count");
  m.set("serve.flush_full", static_cast<double>(st.flush_full), "count");
  m.set("serve.flush_drain", static_cast<double>(st.flush_drain), "count");
  m.set("serve.queue_hwm", static_cast<double>(st.queue_hwm), "count");

  const auto& dm = svc->matcher();
  const parmatch::dyn::CumulativeStats& s1 = dm.cumulative_stats();
  const double upd = static_cast<double>(s1.total_updates() - s0.total_updates());
  const double win = static_cast<double>(std::max<std::size_t>(1, st.batches));
  m.set("dyn.work_per_upd", static_cast<double>(s1.work_units - s0.work_units) / upd, "ratio");
  m.set("dyn.samples_per_upd", static_cast<double>(s1.samples_created - s0.samples_created) / upd, "ratio");
  m.set("dyn.steal_rounds_per_batch", static_cast<double>(s1.steal_rounds - s0.steal_rounds) / win, "ratio");
  m.set("dyn.settle_rounds_per_batch", static_cast<double>(s1.settle_rounds - s0.settle_rounds) / win, "ratio");
  m.set("dyn.spec_retries_per_batch", static_cast<double>(s1.spec_retries - s0.spec_retries) / win, "ratio");
  m.set("dyn.stolen_per_kupd", static_cast<double>(s1.stolen - s0.stolen) * 1e3 / upd, "ratio");
  m.set("dyn.bloated_per_kupd", static_cast<double>(s1.bloated - s0.bloated) * 1e3 / upd, "ratio");
  m.set("graph.bytes_per_live_edge",
        static_cast<double>(dm.memory_bytes()) /
            static_cast<double>(std::max<std::size_t>(1, dm.pool().live_count())),
        "B");
  if (a.trace) m.set("trace.commit_p50_us", lat_p50, "us");
  if (!durable) return;

  // Durability layers: journal and checkpoint counters for the timed
  // phase, one export_state() timed from outside, then recovery.
  m.set("journal.bytes_per_upd",
        static_cast<double>(svc->journal().bytes() - std::get<0>(j0)) / static_cast<double>(N), "B");
  m.set("journal.records", static_cast<double>(svc->journal().records() - std::get<1>(j0)), "count");
  m.set("journal.syncs", static_cast<double>(svc->journal().syncs() - std::get<2>(j0)), "count");
  m.set("checkpoint.written", static_cast<double>(svc->checkpoints_written() - ck_w0), "count");
  m.set("checkpoint.skipped", static_cast<double>(svc->checkpoints_skipped() - ck_s0), "count");
  {
    std::vector<std::uint64_t> words;
    std::uint64_t e0 = pb::now_ns();
    {
      pb::Tracer::Scope s(tr, "export_state", "dyn");
      dm.export_state(words);
    }
    m.set("checkpoint.export_ms", static_cast<double>(pb::now_ns() - e0) * 1e-6, "ms");
  }
  const std::uint64_t fp_stopped = svc->recovery_fingerprint();
  svc.reset();

  auto seqs = serve::list_checkpoints(a.scratch);
  if (!seqs.empty()) {
    std::error_code ec;
    auto bytes = std::filesystem::file_size(serve::checkpoint_path(a.scratch, seqs.back()), ec);
    if (!ec) m.set("checkpoint.file_mb", static_cast<double>(bytes) / (1024.0 * 1024.0), "MB");
  }
  {
    serve::CheckpointData cd;
    std::uint64_t l0 = pb::now_ns();
    {
      pb::Tracer::Scope s(tr, "load_newest_checkpoint", "durability");
      serve::load_newest_checkpoint(a.scratch, cd);
    }
    m.set("recovery.ckpt_load_s", static_cast<double>(pb::now_ns() - l0) * 1e-9, "s");
  }
  std::uint64_t r0 = pb::now_ns();
  {
    pb::Tracer::Scope s(tr, "construct_recover", "durability");
    svc = std::make_unique<Service>(cfg);
  }
  m.set("recovery.total_s", static_cast<double>(pb::now_ns() - r0) * 1e-9, "s");
  m.set("recovery.replayed_windows", static_cast<double>(svc->recovery_info().replayed_windows), "count");
  {
    pb::Tracer::Scope s(tr, "oracle", "harness");
    run.check("recovery", pb::check_recovery(fp_stopped, svc->recovery_fingerprint(),
                                             svc->recovery_info().epoch_mismatches));
    verify_service(*svc, g, live, ticket, "after recovery", run);
  }
  svc.reset();
  std::error_code ec;
  std::filesystem::remove_all(a.scratch, ec);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S [--trace 0|1] "
                 "[--scratch DIR] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  pb::Tracer tr(a.trace);
  Run run;
  declare_layer_metrics(run.metrics);
  if (a.workload == "churn_bulk") {
    run_churn({true, 21, 65536, 64, 64}, a, tr, run);
  } else if (a.workload == "churn_small") {
    run_churn({false, 18, 16, 65536, 1u << 17}, a, tr, run);
  } else if (a.workload == "serve_poisson" || a.workload == "serve_durable") {
    run_serve(a.workload == "serve_durable", a, tr, run);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  Metrics& m = run.metrics;
  if (m.get("peak_rss_mb") == 0) m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("parallel.cutover_items", static_cast<double>(parmatch::parallel::parallel_break_even()), "count");
  if (a.trace) {
    m.set("trace.upd_per_s", m.get("upd_per_s"), "upd/s");
    m.set("trace.dyn_self_s", tr.self_s("dyn"), "s");
    m.set("trace.serve_self_s", tr.self_s("serve"), "s");
    m.set("trace.durability_self_s", tr.self_s("durability"), "s");
    m.set("trace.harness_self_s", tr.self_s("harness"), "s");
    m.set("trace.spans", static_cast<double>(tr.span_count()), "count");
    if (!a.trace_out.empty() && !tr.write_chrome(a.trace_out, a.workload))
      std::fprintf(stderr, "could not write %s\n", a.trace_out.c_str());
  }
  std::string err;
  for (char ch : run.error) err += (ch == '"' || ch == '\\') ? '\'' : ch;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"error\": \"%s\", "
              "\"metrics\": %s}\n",
              run.error.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), err.c_str(),
              m.json().c_str());
  return 0;
}
