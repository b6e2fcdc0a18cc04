// perfbench/trace.h -- spans around the harness's calls into the library.
//
// One thread (the producer) opens and closes spans in LIFO order. Each
// span has a name, the layer it belongs to, start, end, its parent span and
// a workload-level id (batch number, update index). Per-name totals and
// self times (duration minus the part covered by child spans) are kept for
// every span; the first kKeepPerName spans of each name are also kept in
// memory in full and written at the end as Chrome trace-event JSON, so a
// run of millions of calls still writes a file of bounded size.
//
// Off (the untraced run), begin/end are a branch each.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  static constexpr std::size_t kKeepPerName = 4096;

  struct Total {
    const char* name;
    const char* layer;
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };

  explicit Tracer(bool on) : on_(on), origin_(now_ns()) {}
  bool on() const { return on_; }

  void begin(const char* name, const char* layer, std::uint64_t id = 0) {
    if (!on_) return;
    open_.push_back(Open{slot(name, layer), id, ++seq_, now_ns(), 0});
  }

  void end() {
    if (!on_) return;
    std::uint64_t t1 = now_ns();
    Open o = open_.back();
    open_.pop_back();
    std::uint64_t dur = t1 - o.t0;
    Total& tot = totals_[o.slot];
    ++tot.count;
    tot.total_ns += dur;
    tot.self_ns += dur - (o.child_ns < dur ? o.child_ns : dur);
    std::uint64_t parent = 0;
    if (!open_.empty()) {
      open_.back().child_ns += dur;
      parent = open_.back().seq;
    }
    if (kept_[o.slot] < kKeepPerName) {
      ++kept_[o.slot];
      spans_.push_back(Span{o.slot, o.id, o.seq, parent, o.t0, t1});
    }
  }

  // Scoped span: Tracer::Scope s(tr, "insert_edges", "dyn", batch);
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer, std::uint64_t id = 0)
        : t_(t) {
      t_.begin(name, layer, id);
    }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  // Self time summed over every span of `layer`, in seconds.
  double self_s(const char* layer) const {
    std::uint64_t ns = 0;
    for (const Total& t : totals_)
      if (std::strcmp(t.layer, layer) == 0) ns += t.self_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  std::uint64_t span_count() const {
    std::uint64_t n = 0;
    for (const Total& t : totals_) n += t.count;
    return n;
  }

  // Chrome trace-event JSON (chrome://tracing, Perfetto). Returns false on
  // an I/O error.
  bool write_chrome(const std::string& path, const std::string& workload) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"otherData\":{\"workload\":\"%s\",\"kept_per_name\":%zu},"
                    "\"traceEvents\":[",
                 workload.c_str(), kKeepPerName);
    bool first = true;
    for (const Span& s : spans_) {
      const Total& t = totals_[s.slot];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                   "\"parent\":%llu,\"id\":%llu}}",
                   first ? "" : ",", t.name, t.layer,
                   static_cast<double>(s.t0 - origin_) * 1e-3,
                   static_cast<double>(s.t1 - s.t0) * 1e-3,
                   static_cast<unsigned long long>(s.seq),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.id));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    std::size_t slot;
    std::uint64_t id, seq, t0, child_ns;
  };
  struct Span {
    std::size_t slot;
    std::uint64_t id, seq, parent, t0, t1;
  };

  // Names are string literals: interned by pointer, few enough for a scan.
  std::size_t slot(const char* name, const char* layer) {
    for (std::size_t i = 0; i < totals_.size(); ++i)
      if (totals_[i].name == name) return i;
    totals_.push_back(Total{name, layer});
    kept_.push_back(0);
    return totals_.size() - 1;
  }

  bool on_;
  std::uint64_t origin_;
  std::uint64_t seq_ = 0;
  std::vector<Open> open_;
  std::vector<Total> totals_;
  std::vector<std::size_t> kept_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
