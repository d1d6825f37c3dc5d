#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"
#include "perfbench.h"
#include "sim/experiment.h"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void RepResult::set(const std::string& name, double value) {
  for (auto& [key, v] : values)
    if (key == name) {
      v = value;
      return;
    }
  values.emplace_back(name, value);
}

double RepResult::get(const std::string& name) const {
  for (const auto& [key, v] : values)
    if (key == name) return v;
  return std::numeric_limits<double>::quiet_NaN();
}

void RepResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) failures.push_back(what);
}

std::string RepResult::to_json() const {
  std::string out = "{\"values\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(values[i].first) + ": " + json_number(values[i].second);
  }
  out += "}, \"digest\": " + json_string(digest);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(failures[i]);
  }
  out += "], \"context\": " + build_context_json() + "}";
  return out;
}

std::uint64_t default_seed() { return rapid::ScenarioConfig{}.seed; }

double seeded_load(double load, std::uint64_t seed, std::size_t slot) {
  if (seed == default_seed()) return load;
  Digest d;
  d.add_u64(seed);
  d.add_u64(slot);
  // A shift of 1..10 thousandths either way: a new workload key, and at
  // most 4% off the smallest load any workload uses (0.25).
  const std::uint64_t h = d.value();
  const int shift = 1 + static_cast<int>(h % 10);
  return load + ((h >> 8) & 1 ? shift : -shift) / 1000.0;
}

RepResult run_rep(const RepOptions& options) {
  if (options.workload == "fleet-2k") return run_fleet(options);
  if (options.workload == "figure-sweep") return run_sweep(options);
  if (options.workload == "service-live") return run_service(options);
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "'; known: fleet-2k, figure-sweep, service-live");
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in kilobytes on Linux
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

void Digest::add_result(const rapid::SimResult& r) {
  add_u64(r.total_packets);
  add_u64(r.delivered);
  add_u64(r.meetings);
  add_u64(r.drops);
  add_u64(static_cast<std::uint64_t>(r.data_bytes));
  add_u64(static_cast<std::uint64_t>(r.metadata_bytes));
  add_u64(static_cast<std::uint64_t>(r.capacity_bytes));
  add_double(r.avg_delay);
  add_double(r.max_delay);
  for (rapid::Time t : r.delivery_time) add_double(t);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double percentile(std::vector<float> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

bool obs_enabled() { return RAPID_OBS_ENABLED != 0; }

std::string build_context_json() {
#ifdef PERFBENCH_BUILD_TYPE
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  return "{\"build_type\": " + json_string(build_type) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"rapid_obs\": " + (obs_enabled() ? "\"ON\"" : "\"OFF\"") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + "}";
}

}  // namespace perfbench
