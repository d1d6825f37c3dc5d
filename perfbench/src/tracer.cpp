#include "tracer.h"

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRep: return "rep";
    case SpanName::kScenario: return "scenario";
    case SpanName::kScenarioInstance: return "scenario.instance";
    case SpanName::kSimConstruct: return "sim.construct";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kStepMeeting: return "sim.step.meeting";
    case SpanName::kStepPacket: return "sim.step.packet";
    case SpanName::kStepOther: return "sim.step.other";
    case SpanName::kMobilityPeek: return "mobility.peek";
    case SpanName::kMobilityPop: return "mobility.pop";
    case SpanName::kSweep: return "runner.sweep";
    case SpanName::kCell: return "runner.cell";
    case SpanName::kFinish: return "sim.finish";
    case SpanName::kEngineConstruct: return "service.construct";
    case SpanName::kIngest: return "service.ingest";
    case SpanName::kAdvance: return "service.advance_to";
    case SpanName::kQueryDelay: return "service.query_delay";
    case SpanName::kQueryUtility: return "service.query_utility";
    case SpanName::kQueryStatus: return "service.query_status";
    case SpanName::kQueryStats: return "service.stats";
    case SpanName::kSnapshot: return "service.snapshot";
    case SpanName::kRestore: return "service.restore";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<std::uint64_t> g_generation{0};

SpanId make_id(std::uint32_t thread, std::uint32_t index) {
  return (static_cast<SpanId>(thread) << 32) | index;
}

}  // namespace

struct Tracer::ThreadLog {
  struct Open {
    SpanId id = kNoSpan;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::size_t kept = 0;  // index into `kept`, or npos
  };
  static constexpr std::size_t kNotKept = static_cast<std::size_t>(-1);

  std::thread::id owner;
  std::uint32_t thread = 0;
  std::uint32_t next_index = 0;
  SpanId adopted = kNoSpan;
  std::vector<Open> stack;
  std::vector<Span> kept;
  std::uint64_t dropped = 0;
  std::array<SpanStats, kSpanNameCount> stats{};
};

Tracer::Tracer(std::size_t keep_per_thread)
    : generation_(g_generation.fetch_add(1) + 1), keep_per_thread_(keep_per_thread) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::log() {
  // One log per (thread, tracer). The per-thread cache remembers the last
  // tracer used; the generation tells it apart from an earlier tracer that
  // lived at the same address.
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_generation == generation_) return *cached;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  cached = nullptr;
  for (const auto& l : logs_)
    if (l->owner == self) cached = l.get();
  if (cached == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->owner = self;
    fresh->thread = static_cast<std::uint32_t>(logs_.size());
    cached = fresh.get();
    logs_.push_back(std::move(fresh));
  }
  cached_generation = generation_;
  return *cached;
}

void Tracer::open(SpanName name) {
  ThreadLog& l = log();
  ThreadLog::Open o;
  o.id = make_id(l.thread, l.next_index++);
  o.kept = ThreadLog::kNotKept;
  if (l.kept.size() < keep_per_thread_) {
    Span s;
    s.name = name;
    s.thread = l.thread;
    s.id = o.id;
    s.parent = l.stack.empty() ? l.adopted : l.stack.back().id;
    o.kept = l.kept.size();
    l.kept.push_back(s);
  } else {
    ++l.dropped;
  }
  l.stack.push_back(o);
  l.stack.back().start_ns = now_ns();
}

void Tracer::close(SpanName name) {
  const std::uint64_t end = now_ns();
  ThreadLog& l = log();
  const ThreadLog::Open o = l.stack.back();
  l.stack.pop_back();
  const std::uint64_t duration = end - o.start_ns;
  const std::uint64_t self = duration - o.child_ns;
  if (!l.stack.empty()) l.stack.back().child_ns += duration;
  SpanStats& st = l.stats[static_cast<std::size_t>(name)];
  ++st.count;
  st.total_ns += duration;
  st.self_ns += self;
  st.durations_ns.push_back(static_cast<float>(duration));
  if (o.kept != ThreadLog::kNotKept) {
    Span& s = l.kept[o.kept];
    s.name = name;
    s.start_ns = o.start_ns;
    s.end_ns = end;
    s.self_ns = self;
  }
}

SpanId Tracer::current() {
  ThreadLog& l = log();
  return l.stack.empty() ? l.adopted : l.stack.back().id;
}

void Tracer::adopt(SpanId parent) { log().adopted = parent; }

SpanStats Tracer::stats(SpanName name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanStats out;
  for (const auto& l : logs_) {
    const SpanStats& st = l->stats[static_cast<std::size_t>(name)];
    out.count += st.count;
    out.total_ns += st.total_ns;
    out.self_ns += st.self_ns;
    out.durations_ns.insert(out.durations_ns.end(), st.durations_ns.begin(),
                            st.durations_ns.end());
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& l : logs_) out.insert(out.end(), l->kept.begin(), l->kept.end());
  return out;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& l : logs_) n += l->dropped;
  return n;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\tself_ns\n";
  for (const Span& s : spans()) {
    out << s.id << '\t';
    if (s.parent == kNoSpan)
      out << '-';
    else
      out << s.parent;
    out << '\t' << s.thread << '\t' << span_name(s.name) << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.self_ns << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name) : tracer_(tracer), name_(name) {
  if (tracer_ != nullptr) tracer_->open(name_);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(name_);
}

}  // namespace perfbench
