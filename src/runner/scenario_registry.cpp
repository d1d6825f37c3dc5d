#include "runner/scenario_registry.h"

#include <algorithm>
#include <stdexcept>

namespace rapid::runner {
namespace {

void register_builtins(ScenarioRegistry& registry) {
  registry.add({"trace", "Reduced-scale DieselNet trace (24 buses, 4 h days); default for Figs 4-15",
                [] { return make_trace_scenario(); }});
  registry.add({"trace-full", "Table-3-scale DieselNet (40 buses, 19 h days); validation scale",
                [] { return make_full_trace_scenario(); }});
  registry.add({"exponential", "Uniform exponential mobility, Table 4 synthetic defaults",
                [] { return make_exponential_scenario(); }});
  registry.add({"powerlaw", "Popularity-skewed mobility, Table 4 synthetic defaults",
                [] { return make_powerlaw_scenario(); }});

  // Extended scenarios beyond the paper's grid.
  registry.add({"trace-large",
                "Full 40-bus fleet on reduced-length days: larger contact graph, same runtime class",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.dieselnet.fleet_size = 40;
                  config.dieselnet.min_buses_per_day = 20;
                  config.dieselnet.max_buses_per_day = 24;
                  config.dieselnet.num_routes = 6;
                  return config;
                }});
  registry.add({"trace-longday",
                "Reduced fleet on doubled (8 h) days: long-horizon delay distributions",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.dieselnet.day_duration = 8.0 * kSecondsPerHour;
                  config.deadline = 5.4 * kSecondsPerHour;
                  return config;
                }});
  registry.add({"trace-mixed-deadline",
                "Trace scenario where 30% of packets carry an urgent 0.9 h deadline",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.urgent_deadline = 0.9 * kSecondsPerHour;
                  config.urgent_fraction = 0.3;
                  return config;
                }});
  registry.add({"exponential-dense",
                "Exponential mobility with a denser fleet (24 nodes) and doubled horizon",
                [] {
                  ScenarioConfig config = make_exponential_scenario();
                  config.exponential.num_nodes = 24;
                  config.exponential.duration = 900.0;
                  return config;
                }});
  registry.add({"powerlaw-steep",
                "Power-law mobility with steeper popularity skew (0.8 vs 0.5)",
                [] {
                  ScenarioConfig config = make_powerlaw_scenario();
                  config.powerlaw.skew = 0.8;
                  return config;
                }});
  registry.add({"powerlaw-large",
                "Large-scale power-law fleet: 500 nodes, >= 10k packets at load 3 "
                "(exercises the incremental utility cache; see docs/ARCHITECTURE.md)",
                [] {
                  ScenarioConfig config = make_powerlaw_scenario();
                  config.powerlaw.num_nodes = 500;
                  config.powerlaw.duration = 400.0;
                  // Rank products span 1..500^2: scale the base mean so the
                  // fleet-wide meeting count stays in the low thousands per
                  // run instead of exploding quadratically with n.
                  config.powerlaw.base_mean = 150.0;
                  config.powerlaw.mean_opportunity = 64_KB;
                  config.deadline = 120.0;
                  config.buffer_capacity = 50_KB;  // forces real eviction churn
                  config.synthetic_runs = 1;
                  return config;
                }});

  // MobilityModel scenarios. The two movement models below are small and
  // register with the default materialized path (flip
  // ScenarioConfig::stream_mobility to pull their contacts lazily — results
  // are bit-identical either way); powerlaw-stream registers streaming
  // because avoiding the materialized schedule is its point.
  registry.add({"vehicular-grid",
                "Grid/map vehicular model: 36 vehicles on random lattice routes with "
                "stop dwell times; contacts emerge from the movement simulation",
                [] { return make_vehicular_grid_scenario(); }});
  registry.add({"working-day",
                "Working-day community model: home/work clusters with commute windows; "
                "contacts come from windowed Poisson pair processes",
                [] { return make_working_day_scenario(); }});
  registry.add({"powerlaw-stream",
                "2000-node power-law fleet streamed end-to-end (contacts pulled "
                "lazily, never materialized; peak RSS independent of meeting "
                "count — see bench_record pr5 / BENCH_pr5.json)",
                [] {
                  ScenarioConfig config = make_powerlaw_scenario();
                  config.stream_mobility = true;
                  config.powerlaw.num_nodes = 2000;
                  config.powerlaw.duration = 600.0;
                  // Rank products span 1..2000^2; the base mean keeps the
                  // fleet-wide stream in the tens of thousands of contacts
                  // per run instead of exploding quadratically with n.
                  config.powerlaw.base_mean = 75.0;
                  config.powerlaw.mean_opportunity = 128_KB;
                  config.deadline = 600.0;
                  config.buffer_capacity = 256_KB;
                  config.synthetic_runs = 1;
                  return config;
                }});

  // Link-policy scenarios: the trace scenario under the non-clean contacts
  // the paper's deployment notes describe (radios drop out of range
  // mid-transfer; up/down bandwidth is rarely symmetric).
  registry.add({"trace-interrupted",
                "Trace scenario where 40% of contacts are cut mid-transfer "
                "(incomplete copies discarded, burned bytes charged)",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.link.interruption_rate = 0.4;
                  config.link.min_completion = 0.2;
                  config.link.max_completion = 0.9;
                  return config;
                }});
  registry.add({"trace-asymmetric",
                "Trace scenario with a 4:1 directional bandwidth split per "
                "contact instead of one shared pool",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.link.forward_fraction = 0.8;
                  return config;
                }});

  // Fault-injection scenarios (src/fault): the trace scenario under node
  // crash/recover processes and lossy links. Crashed buses miss their
  // contacts and lose their buffers; corrupted copies burn bandwidth without
  // delivering. See docs/EXPERIMENTS.md for the measured ranking shifts.
  registry.add({"trace-faulty",
                "Trace scenario with node crashes (mean 1.5 h up / 0.4 h down, "
                "buffers lost) and 10% per-copy link corruption",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.node_faults.mean_uptime = 1.5 * kSecondsPerHour;
                  config.node_faults.mean_downtime = 0.4 * kSecondsPerHour;
                  config.node_faults.drop_buffers = true;
                  config.link_fault.loss_rate = 0.1;
                  config.link_fault.loss_spread = 0.5;
                  return config;
                }});
  registry.add({"trace-faulty-preserve",
                "trace-faulty, but crashed buses keep their buffers and rejoin "
                "with stale routing state (reboot, not wipe)",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.node_faults.mean_uptime = 1.5 * kSecondsPerHour;
                  config.node_faults.mean_downtime = 0.4 * kSecondsPerHour;
                  config.node_faults.drop_buffers = false;
                  config.link_fault.loss_rate = 0.1;
                  config.link_fault.loss_spread = 0.5;
                  return config;
                }});
  registry.add({"trace-degraded-meta",
                "Trace scenario where 30% of contacts open with a metadata "
                "channel degraded to a quarter of its budget",
                [] {
                  ScenarioConfig config = make_trace_scenario();
                  config.link_fault.meta_degrade_rate = 0.3;
                  config.link_fault.meta_survive_fraction = 0.25;
                  return config;
                }});
  registry.add({"powerlaw-stream-faulty",
                "powerlaw-stream under node crashes and 5% link corruption: "
                "the fault probes' operating point for bench_record pr9",
                [] {
                  // Same operating point as powerlaw-stream (keep in sync),
                  // with the fault processes switched on.
                  ScenarioConfig config = make_powerlaw_scenario();
                  config.stream_mobility = true;
                  config.powerlaw.num_nodes = 2000;
                  config.powerlaw.duration = 600.0;
                  config.powerlaw.base_mean = 75.0;
                  config.powerlaw.mean_opportunity = 128_KB;
                  config.deadline = 600.0;
                  config.buffer_capacity = 256_KB;
                  config.synthetic_runs = 1;
                  config.node_faults.mean_uptime = 200.0;
                  config.node_faults.mean_downtime = 40.0;
                  config.node_faults.drop_buffers = true;
                  config.link_fault.loss_rate = 0.05;
                  config.link_fault.loss_spread = 0.5;
                  return config;
                }});
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry;
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(ScenarioEntry entry) {
  if (entry.name.empty()) throw std::invalid_argument("ScenarioRegistry: empty name");
  if (!entry.make) throw std::invalid_argument("ScenarioRegistry: no builder for " + entry.name);
  if (find(entry.name) != nullptr)
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario " + entry.name);
  entries_.push_back(std::move(entry));
}

const ScenarioEntry* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioEntry& entry : entries_)
    if (entry.name == name) return &entry;
  return nullptr;
}

ScenarioConfig ScenarioRegistry::make(const std::string& name) const {
  const ScenarioEntry* entry = find(name);
  if (entry == nullptr) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown scenario '" + name + "' (known: " + known + ")");
  }
  return entry->make();
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const ScenarioEntry& entry : entries_) out.push_back(entry.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rapid::runner
