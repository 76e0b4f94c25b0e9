#pragma once

// Shared pieces of the perfbench binary: clocks, the in-memory span
// recorder, the raw result record handed to run.py, and input generation.
//
// The binary measures; run.py aggregates.  Every end-to-end number leaves
// this program as a list of raw samples and every per-layer number as a
// list of spans, so the percentile and median code lives in one place
// (stats.py) with its own self-test.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snap/graph/csr_graph.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/stream/update_batch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// ---------------------------------------------------------------------------
// Spans.  One span per call into a layer's public function, recorded by the
// benchmark around the call (nothing inside src/ is instrumented).  Each
// thread appends to its own SpanLog; logs merge into the Tracer only when
// the thread is done, so recording takes no lock.

struct Span {
  std::string name;  ///< "<layer>.<function>", e.g. "kernels.bfs"
  int tid = 0;       ///< recording thread (0 = main)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  double arg = 0;    ///< per-call count: BFS levels, sweeps, bytes, ...
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Clock::time_point origin() const { return origin_; }

  void merge(std::vector<Span>* spans) {
    const std::lock_guard<std::mutex> lk(mu_);
    for (Span& s : *spans) spans_.push_back(std::move(s));
    spans->clear();
  }
  /// All merged spans; call only after every SpanLog is gone.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanLog {
 public:
  SpanLog(Tracer* tracer, int tid) : tracer_(tracer), tid_(tid) {}
  ~SpanLog() { tracer_->merge(&spans_); }
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Recording is on when the run is traced and `on` allows it; the
  /// traced run switches it off for alternate units of work to measure
  /// the recorder's own overhead.
  [[nodiscard]] bool active() const { return tracer_->enabled() && on; }

  void add(std::string_view name, Clock::time_point start,
           Clock::time_point end, double arg = 0) {
    if (!active()) return;
    spans_.push_back(
        {std::string(name), tid_,
         std::chrono::duration_cast<std::chrono::nanoseconds>(
             start - tracer_->origin())
             .count(),
         std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count(),
         arg});
  }

  bool on = true;

 private:
  Tracer* tracer_;
  int tid_;
  std::vector<Span> spans_;
};

/// Time `f()` and record it as span `name`; returns the seconds taken
/// (measured whether or not the span is recorded).
template <typename F>
double timed(SpanLog& log, std::string_view name, F&& f, double arg = 0) {
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  log.add(name, t0, t1, arg);
  return seconds_between(t0, t1);
}

// ---------------------------------------------------------------------------
// Command line of the binary (run.py passes these through).

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;  ///< measurement window
  bool trace = false;   ///< traced run: spans, thread baseline, layer replay
  std::string tmpdir;   ///< scratch directory inside the checkout
  int threads = 1;      ///< kernel threads (nproc)
};

// ---------------------------------------------------------------------------
// Raw result of one run, written as JSON for run.py.

struct Result {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void add(const std::string& key, double value) {
    samples[key].push_back(value);
  }
  void append(const std::string& key, const std::vector<double>& values) {
    auto& dst = samples[key];
    dst.insert(dst.end(), values.begin(), values.end());
  }
  /// One output check; counted in `attempted`, and in `failed` if !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

void write_result(const std::string& path, const Result& r,
                  const Tracer& tracer, int threads);

// The workloads (offline.cpp, service.cpp).
void run_offline_rmat(const Options& o, Result& r, Tracer& tracer);
void run_service_ingest(const Options& o, Result& r, Tracer& tracer);

// ---------------------------------------------------------------------------
// Inputs.  Everything is a pure function of the seed.

struct EdgePair {
  snap::vid_t u;
  snap::vid_t v;
};

/// Undirected R-MAT graph on 2^scale vertices from m generated edges
/// (duplicates and self loops dropped by the CSR build), the paper's
/// small-world instance class.
snap::CSRGraph rmat_graph(int scale, snap::eid_t m, std::uint64_t seed);

/// Generator seed of every workload's graph instance.  The instance is
/// fixed: Louvain's level and sweep counts, and so its time, differ from
/// one R-MAT draw to the next by more than a regression bound.  The run's
/// --seed varies everything drawn from the instance instead: BFS and BC
/// sources, the edge stream's order, and the vertices requests name.
inline constexpr std::uint64_t kGraphSeed = 0x5eed;

/// Every logical edge of `g` once, in a seeded shuffle.
std::vector<EdgePair> edge_stream(const snap::CSRGraph& g,
                                  std::uint64_t seed);

/// A contiguous run of the stream, as the /ingest body, the UpdateBatch the
/// service builds from it, and its record count.
struct Batch {
  std::string body;
  snap::stream::UpdateBatch updates;
  std::size_t edges = 0;
};

/// Cut edges[begin, end) into batches of `batch_edges` records; record
/// times continue from `begin`, as a replayed log would.
std::vector<Batch> make_batches(const std::vector<EdgePair>& edges,
                                std::size_t begin, std::size_t end,
                                std::size_t batch_edges);

/// `count` distinct vertices of the giant component of `g`, whose
/// components are `cc`.
std::vector<snap::vid_t> giant_sample(const snap::CSRGraph& g,
                                      const snap::Components& cc,
                                      std::size_t count, std::uint64_t seed);

/// Deterministic 64-bit mixer for seeding sub-streams.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
