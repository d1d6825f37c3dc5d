#include "runner/figures.h"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <stdexcept>

#include "runner/profile_run.h"
#include "runner/serve_run.h"

namespace rapid::runner {
namespace {

std::vector<ProtocolSeries> paper_protocols(RoutingMetric metric) {
  return {{ProtocolKind::kRapid, metric},
          {ProtocolKind::kMaxProp, metric},
          {ProtocolKind::kSprayWait, metric},
          {ProtocolKind::kRandom, metric}};
}

std::vector<ProtocolSeries> global_channel_pair(RoutingMetric metric) {
  return {{ProtocolKind::kRapid, metric}, {ProtocolKind::kRapidGlobal, metric}};
}

FigureDef load_fig(std::string id, std::string title, std::string x_label,
                   std::string y_label, std::string scenario,
                   std::vector<ProtocolSeries> series, MetricExtractor extract,
                   double scale) {
  FigureDef fig;
  fig.id = std::move(id);
  fig.title = std::move(title);
  fig.x_label = std::move(x_label);
  fig.y_label = std::move(y_label);
  fig.axis = SweepAxis::kLoad;
  fig.scenario = std::move(scenario);
  fig.series = std::move(series);
  fig.extract = extract;
  fig.scale = scale;
  return fig;
}

FigureDef buffer_fig(std::string id, std::string title, std::string y_label,
                     std::string scenario, std::vector<ProtocolSeries> series,
                     MetricExtractor extract) {
  FigureDef fig = load_fig(std::move(id), std::move(title), "storage (KB)",
                           std::move(y_label), std::move(scenario), std::move(series),
                           extract, 1.0);
  fig.axis = SweepAxis::kBuffer;
  return fig;
}

FigureDef custom_fig(std::string id, std::string title, std::string x_label,
                     std::string y_label, std::string scenario,
                     void (*body)(const FigureDef&, const Options&, SweepExecutor&)) {
  FigureDef fig;
  fig.id = std::move(id);
  fig.title = std::move(title);
  fig.x_label = std::move(x_label);
  fig.y_label = std::move(y_label);
  fig.axis = SweepAxis::kCustom;
  fig.scenario = std::move(scenario);
  fig.custom = body;
  return fig;
}

std::vector<FigureDef> build_catalog() {
  const double per_min = 1.0 / kSecondsPerMinute;
  const std::string trace_x = "packets/hour/destination";
  const std::string synth_x = "packets/50s/destination";
  std::vector<FigureDef> catalog;

  catalog.push_back(custom_fig("3", "Average delay per day: deployment vs simulation",
                               "day", "avg delay (min)", "trace", detail::run_fig3_validation));
  catalog.push_back(load_fig("4", "(Trace) Average delay of delivered packets", trace_x,
                             "avg delay (min)", "trace",
                             paper_protocols(RoutingMetric::kAvgDelay), extract_avg_delay,
                             per_min));
  catalog.push_back(load_fig("5", "(Trace) Fraction of packets delivered", trace_x,
                             "% delivered", "trace",
                             paper_protocols(RoutingMetric::kAvgDelay),
                             extract_delivery_rate, 1.0));
  catalog.push_back(load_fig("6", "(Trace) Maximum delay of delivered packets", trace_x,
                             "max delay (min)", "trace",
                             paper_protocols(RoutingMetric::kMaxDelay), extract_max_delay,
                             per_min));
  catalog.push_back(load_fig("7", "(Trace) Fraction delivered within deadline", trace_x,
                             "% within 2.7 h deadline", "trace",
                             paper_protocols(RoutingMetric::kMissedDeadlines),
                             extract_deadline_rate, 1.0));
  catalog.push_back(custom_fig("8", "Average delay vs metadata cap (fraction of bandwidth)",
                               "metadata cap", "avg delay (min) per load", "trace",
                               detail::run_fig8_metadata_cap));
  catalog.push_back(custom_fig("9", "Channel utilization and metadata share vs load",
                               trace_x, "percentages", "trace",
                               detail::run_fig9_channel_utilization));
  catalog.push_back(load_fig("10", "(Trace) Avg delay: in-band vs instant global channel",
                             trace_x, "avg delay (min)", "trace",
                             global_channel_pair(RoutingMetric::kAvgDelay),
                             extract_avg_delay, per_min));
  catalog.push_back(load_fig("11", "(Trace) Delivery rate: in-band vs instant global channel",
                             trace_x, "% delivered", "trace",
                             global_channel_pair(RoutingMetric::kAvgDelay),
                             extract_delivery_rate, 1.0));
  catalog.push_back(load_fig("12", "(Trace) Deadline rate: in-band vs instant global channel",
                             trace_x, "% within 2.7 h deadline", "trace",
                             global_channel_pair(RoutingMetric::kMissedDeadlines),
                             extract_deadline_rate, 1.0));
  catalog.push_back(custom_fig("13", "Average delay (with undelivered) vs Optimal, small loads",
                               "packets/hour/destination", "avg delay (min)", "",
                               detail::run_fig13_optimal));
  catalog.push_back(load_fig("14", "(Trace) RAPID components: value of acks and metadata",
                             trace_x, "avg delay (min)", "trace",
                             {{ProtocolKind::kRapid, RoutingMetric::kAvgDelay},
                              {ProtocolKind::kRapidLocal, RoutingMetric::kAvgDelay},
                              {ProtocolKind::kRandomAcks, RoutingMetric::kAvgDelay},
                              {ProtocolKind::kRandom, RoutingMetric::kAvgDelay}},
                             extract_avg_delay, per_min));
  catalog.push_back(custom_fig("15", "CDF of Jain's fairness index over parallel packet cohorts",
                               "fairness index", "CDF", "trace", detail::run_fig15_fairness));
  catalog.push_back(load_fig("16", "(Powerlaw) Average delay", synth_x, "avg delay (s)",
                             "powerlaw", paper_protocols(RoutingMetric::kAvgDelay),
                             extract_avg_delay, 1.0));
  catalog.push_back(load_fig("17", "(Powerlaw) Max delay", synth_x, "max delay (s)",
                             "powerlaw", paper_protocols(RoutingMetric::kMaxDelay),
                             extract_max_delay, 1.0));
  catalog.push_back(load_fig("18", "(Powerlaw) Delivery within deadline", synth_x,
                             "% within 20 s deadline", "powerlaw",
                             paper_protocols(RoutingMetric::kMissedDeadlines),
                             extract_deadline_rate, 1.0));
  catalog.push_back(buffer_fig("19", "(Powerlaw) Avg delay with constrained buffer",
                               "avg delay (s)", "powerlaw",
                               paper_protocols(RoutingMetric::kAvgDelay),
                               extract_avg_delay));
  catalog.push_back(buffer_fig("20", "(Powerlaw) Max delay with constrained buffer",
                               "max delay (s)", "powerlaw",
                               paper_protocols(RoutingMetric::kMaxDelay),
                               extract_max_delay));
  catalog.push_back(buffer_fig("21", "(Powerlaw) Delivery within deadline, constrained buffer",
                               "% within 20 s deadline", "powerlaw",
                               paper_protocols(RoutingMetric::kMissedDeadlines),
                               extract_deadline_rate));
  catalog.push_back(load_fig("22", "(Exponential) Average delay", synth_x, "avg delay (s)",
                             "exponential", paper_protocols(RoutingMetric::kAvgDelay),
                             extract_avg_delay, 1.0));
  catalog.push_back(load_fig("23", "(Exponential) Max delay", synth_x, "max delay (s)",
                             "exponential", paper_protocols(RoutingMetric::kMaxDelay),
                             extract_max_delay, 1.0));
  catalog.push_back(load_fig("24", "(Exponential) Delivery within deadline", synth_x,
                             "% within 20 s deadline", "exponential",
                             paper_protocols(RoutingMetric::kMissedDeadlines),
                             extract_deadline_rate, 1.0));
  catalog.push_back(custom_fig("table3", "Deployment: average daily statistics (full-scale trace)",
                               "statistic", "mean over days", "trace-full",
                               detail::run_table3_deployment));
  catalog.push_back(custom_fig("fault", "Delivery rate vs failure intensity (crashes + corruption)",
                               "downtime fraction", "% delivered", "trace",
                               detail::run_fault_sweep));
  return catalog;
}

std::string normalize_figure_id(const std::string& id) {
  std::string out;
  for (char ch : id)
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (out.rfind("figure", 0) == 0) out = out.substr(6);
  if (out.rfind("fig", 0) == 0) out = out.substr(3);
  while (!out.empty() && out.front() == ' ') out.erase(out.begin());
  return out;
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& field : split(csv, ',')) {
    const auto v = parse_double(trim(field));
    if (!v) throw std::invalid_argument("bad number in list: " + field);
    out.push_back(*v);
  }
  return out;
}

}  // namespace

const std::vector<FigureDef>& figure_catalog() {
  static const std::vector<FigureDef>* catalog = new std::vector<FigureDef>(build_catalog());
  return *catalog;
}

const FigureDef* find_figure(const std::string& id) {
  const std::string key = normalize_figure_id(id);
  for (const FigureDef& fig : figure_catalog())
    if (fig.id == key) return &fig;
  return nullptr;
}

int thread_count(const Options& options) {
  const int threads = static_cast<int>(options.get_int("threads", 1));
  return threads <= 0 ? ThreadPool::default_thread_count() : threads;
}

int sim_thread_count(const Options& options) {
  const int threads = static_cast<int>(options.get_int("sim-threads", 1));
  return threads <= 0 ? ThreadPool::default_thread_count() : threads;
}

Time dispatch_batch_span(const Options& options) {
  const double span = options.get_double("dispatch-batch", 0.0);
  return span > 0 ? span : 0.0;
}

ScenarioConfig scenario_for(const FigureDef& fig, const Options& options) {
  const std::string name = options.get_string("scenario", fig.scenario);
  ScenarioConfig config = ScenarioRegistry::global().make(name);
  const bool quick = options.get_bool("quick", false);
  if (config.mobility == MobilityKind::kTrace) {
    config.days = static_cast<int>(options.get_int("days", quick ? 2 : 4));
  } else {
    config.synthetic_runs = static_cast<int>(options.get_int("runs", quick ? 1 : 2));
  }
  return config;
}

std::vector<double> loads_or(const Options& options, std::vector<double> fallback) {
  const std::string explicit_loads = options.get_string("loads", "");
  if (!explicit_loads.empty()) return parse_double_list(explicit_loads);
  return fallback;
}

std::vector<double> default_loads(const ScenarioConfig& config, const Options& options) {
  const bool quick = options.get_bool("quick", false);
  if (config.mobility == MobilityKind::kTrace)
    return loads_or(options, quick ? std::vector<double>{4, 16, 40}
                                   : std::vector<double>{2, 6, 12, 20, 30, 40});
  return loads_or(options, quick ? std::vector<double>{10, 40, 80}
                                 : std::vector<double>{10, 30, 50, 80});
}

std::vector<Bytes> default_buffers(const Options& options) {
  const std::string explicit_buffers = options.get_string("buffers-kb", "");
  if (!explicit_buffers.empty()) {
    std::vector<Bytes> out;
    for (double kb : parse_double_list(explicit_buffers))
      out.push_back(static_cast<Bytes>(kb * 1024.0));
    return out;
  }
  if (options.get_bool("quick", false)) return {10_KB, 100_KB, 280_KB};
  return {10_KB, 40_KB, 100_KB, 160_KB, 220_KB, 280_KB};
}

void print_figure_banner(const FigureDef& fig) {
  const std::string id = fig.id == "table3" ? "Table 3" : "Fig " + fig.id;
  std::cout << "=== " << id << ": " << fig.title << " ===\n"
            << "x: " << fig.x_label << " | y: " << fig.y_label << "\n";
}

void export_table(const Table& table, const Options& options) {
  const std::string csv = options.get_string("csv", "");
  if (!csv.empty() && !table.write_csv_file(csv))
    std::cerr << "warning: could not write CSV to " << csv << "\n";
  const std::string json = options.get_string("json", "");
  if (!json.empty() && !table.write_json_file(json))
    std::cerr << "warning: could not write JSON to " << json << "\n";
}

int run_figure(const FigureDef& fig, const Options& options) {
  try {
    SweepExecutor executor(thread_count(options));
    if (fig.custom) {
      fig.custom(fig, options, executor);
      return 0;
    }

    const ScenarioConfig config = scenario_for(fig, options);
    const Scenario scenario(config);
    std::vector<RunSpec> specs;
    specs.reserve(fig.series.size());
    for (const ProtocolSeries& ps : fig.series) {
      RunSpec spec;
      spec.protocol = ps.protocol;
      spec.metric = ps.metric;
      spec.sim_threads = sim_thread_count(options);
      spec.dispatch_batch = dispatch_batch_span(options);
      specs.push_back(spec);
    }

    std::vector<Series> swept =
        fig.axis == SweepAxis::kBuffer
            ? executor.buffer_sweep(scenario, options.get_double("load", 20.0),
                                    default_buffers(options), specs)
            : executor.load_sweep(scenario, default_loads(config, options), specs);

    ResultStore store(fig.x_label);
    for (std::size_t i = 0; i < swept.size(); ++i)
      store.add_series(to_string(fig.series[i].protocol), std::move(swept[i]));

    print_figure_banner(fig);
    const Table table = store.summary_table(fig.extract, fig.scale);
    table.print(std::cout);
    export_table(table, options);
    const std::string raw_csv = options.get_string("raw-csv", "");
    if (!raw_csv.empty() &&
        !store.raw_table(fig.extract, fig.scale).write_csv_file(raw_csv))
      std::cerr << "warning: could not write raw CSV to " << raw_csv << "\n";
    std::cout << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error running figure " << fig.id << ": " << e.what() << "\n";
    return 1;
  }
}

namespace {

void print_usage() {
  std::cout
      << "rapid_bench: unified experiment runner for the paper's figures\n\n"
         "usage:\n"
         "  rapid_bench --figure <id> [flags]   run one figure (4, fig4, table3, ...)\n"
         "  rapid_bench --all [flags]           run every figure in the catalog\n"
         "  rapid_bench --list                  list figures and scenarios\n"
         "  rapid_bench --run [obs flags]       one observed (scenario, protocol, load)\n"
         "                                      cell; also entered by --profile,\n"
         "                                      --trace=PATH, or --metrics=PATH alone\n"
         "  rapid_bench serve --trace=PATH      online service mode: tail a contact\n"
         "                                      trace, answer mid-stream queries\n"
         "                                      (--queries=PATH), checkpoint and resume\n"
         "                                      (--snapshot-every=T, --restore=PATH);\n"
         "                                      see docs/SERVICE.md\n\n"
         "flags:\n"
         "  --threads=N        parallel sweep execution (results identical to N=1)\n"
         "  --sim-threads=N    shard each simulation across N cores (bit-identical\n"
         "                     to N=1; 0 = one shard per core)\n"
         "  --dispatch-batch=T batch contact dispatch over spans of T simulated\n"
         "                     seconds (bit-identical to T=0, per-event dispatch)\n"
         "  --scenario=NAME    override the figure's scenario (see --list)\n"
         "  --days=N --runs=N  trace days / synthetic seeds per point\n"
         "  --loads=a,b,c      override load axis; --buffers-kb=a,b,c buffer axis\n"
         "  --load=X           fixed load for buffer sweeps (default 20)\n"
         "  --quick            trimmed sweeps for smoke runs\n"
         "  --csv=PATH --json=PATH  export the printed table\n"
         "  --raw-csv=PATH     export per-run values (sweep figures only)\n\n"
         "observability flags (run mode; see docs/OBSERVABILITY.md):\n"
         "  --protocol=NAME    rapid | maxprop | spray-wait | prophet | ... \n"
         "  --profile          print the per-phase wall-clock breakdown\n"
         "  --trace=PATH       write a Chrome trace_event JSON of the run\n"
         "  --trace-capacity=N trace ring size in events (default 1M)\n"
         "  --metrics=PATH     write per-run metrics-registry snapshots\n"
         "  --metric=NAME      avg-delay | max-delay | missed-deadlines\n";
}

void print_list() {
  Table figures({"figure", "default scenario", "title"});
  for (const FigureDef& fig : figure_catalog())
    figures.add_row({fig.id, fig.scenario.empty() ? "(custom)" : fig.scenario, fig.title});
  std::cout << "figures:\n";
  figures.print(std::cout);

  Table scenarios({"scenario", "description"});
  for (const std::string& name : ScenarioRegistry::global().names())
    scenarios.add_row({name, ScenarioRegistry::global().find(name)->description});
  std::cout << "\nscenarios (use with --scenario=NAME):\n";
  scenarios.print(std::cout);
}

}  // namespace

int rapid_bench_main(int argc, char** argv) {
  const Options options(argc, argv);
  // Service mode is selected by the bare `serve` token (or --serve), so its
  // --trace flag (the contact input) never collides with the observed-run
  // mode's --trace (the Chrome trace output).
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "serve") return run_serve_main(options);
  if (options.get_bool("serve", false)) return run_serve_main(options);
  if (options.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  if (options.get_bool("list", false)) {
    print_list();
    return 0;
  }
  // Observed-run mode: any of the obs flags (without a figure selection)
  // runs one scenario cell through the observability driver.
  if (!options.has("figure") && !options.get_bool("all", false) &&
      (options.get_bool("run", false) || options.get_bool("profile", false) ||
       options.has("trace") || options.has("metrics")))
    return run_observed_main(options);
  if (options.get_bool("all", false)) {
    int failures = 0;
    for (const FigureDef& fig : figure_catalog()) {
      // Derive per-figure export paths so figures don't overwrite each other.
      Options per_figure = options;
      const std::string tag = fig.id == "table3" ? "-table3" : "-fig" + fig.id;
      for (const char* key : {"csv", "json"}) {
        const std::string path = options.get_string(key, "");
        if (path.empty()) continue;
        const std::size_t dot = path.find_last_of('.');
        const std::size_t slash = path.find_last_of('/');
        const bool has_ext =
            dot != std::string::npos && (slash == std::string::npos || dot > slash);
        per_figure.set(key, has_ext ? path.substr(0, dot) + tag + path.substr(dot)
                                    : path + tag);
      }
      failures += run_figure(fig, per_figure);
    }
    return failures == 0 ? 0 : 1;
  }
  const std::string id = options.get_string("figure", "");
  if (id.empty() || id == "true") {
    print_usage();
    return 1;
  }
  const FigureDef* fig = find_figure(id);
  if (fig == nullptr) {
    std::cerr << "unknown figure '" << id << "'; try --list\n";
    return 1;
  }
  return run_figure(*fig, options);
}

}  // namespace rapid::runner
