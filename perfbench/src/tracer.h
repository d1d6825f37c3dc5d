// Span tracer for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around its calls into
// the library (Scenario::instance, the Simulation constructor,
// Simulation::step, the wrapped MobilityModel, the sweep cells, the
// ServiceEngine calls); nothing inside src/ is probed. Each span has a name,
// a start, an end and a parent. Every thread records into its own log, so a
// span costs two clock reads and a vector push with no lock; a worker
// thread's root spans name a parent on the thread that spawned the work.
//
// Per-name aggregates (count, total, self time, per-span durations) cover
// every span. Individual span records are kept up to a per-thread limit and
// written out when the run ends; spans past the limit still count in the
// aggregates. Self time is a span's duration minus the time its children on
// the same thread cover (children on other threads run in parallel with
// the parent and are not subtracted).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kRep,               // one repetition of a workload
  kScenario,          // Scenario construction
  kScenarioInstance,  // Scenario::instance (mobility + workload generation)
  kSimConstruct,      // Simulation constructor (router tables)
  kSimRun,            // the run phase of one simulation
  kStepMeeting,       // Simulation::step that dispatched a meeting
  kStepPacket,        // Simulation::step that generated a packet
  kStepOther,         // any other step (the final drained call)
  kMobilityPeek,      // MobilityModel::peek through the timing wrapper
  kMobilityPop,       // MobilityModel::pop through the timing wrapper
  kSweep,             // the whole figure grid
  kCell,              // one (protocol, load, day) cell of the grid
  kFinish,            // Simulation::finish
  kEngineConstruct,   // ServiceEngine constructor
  kIngest,            // ServiceEngine::ingest
  kAdvance,           // ServiceEngine::advance_to
  kQueryDelay,        // ServiceEngine::query_delay
  kQueryUtility,      // ServiceEngine::query_utility
  kQueryStatus,       // ServiceEngine::query_status
  kQueryStats,        // ServiceEngine::stats
  kSnapshot,          // ServiceEngine::snapshot
  kRestore,           // ServiceEngine::restore
  kCount
};
inline constexpr std::size_t kSpanNameCount = static_cast<std::size_t>(SpanName::kCount);

const char* span_name(SpanName name);

using SpanId = std::uint64_t;  // (thread << 32) | index in that thread's log
inline constexpr SpanId kNoSpan = ~SpanId{0};

struct Span {
  SpanName name = SpanName::kRep;
  std::uint32_t thread = 0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t self_ns = 0;
};

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<float> durations_ns;  // one entry per span, in close order
};

std::uint64_t now_ns();

class Tracer {
 public:
  explicit Tracer(std::size_t keep_per_thread = 200000);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span. A null tracer makes the scope a no-op, so untraced code
  // paths can share the call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Relabels the span before it closes (a step's kind is known only after
    // the step ran).
    void rename(SpanName name) { name_ = name; }

   private:
    Tracer* tracer_;
    SpanName name_;
  };

  // The innermost open span on the calling thread (kNoSpan when none).
  SpanId current();
  // Parent for the calling thread's next root span: work handed to a pool
  // thread names the span that submitted it.
  void adopt(SpanId parent);

  // Aggregates and kept records over every thread. Call after all worker
  // threads have finished.
  SpanStats stats(SpanName name) const;
  std::vector<Span> spans() const;
  std::uint64_t dropped() const;
  // Tab-separated: id, parent, thread, name, start_ns, end_ns, self_ns.
  bool write_tsv(const std::string& path) const;

 private:
  struct ThreadLog;
  ThreadLog& log();
  void open(SpanName name);
  void close(SpanName name);

  const std::uint64_t generation_;
  const std::size_t keep_per_thread_;
  mutable std::mutex mutex_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace perfbench
