// perfbench runner: builds and runs ONE instance of one benchmark workload
// in this process and prints a single JSON line of raw measurements on
// stdout. run.py starts a fresh process for every repetition, so the
// process-lifetime peak RSS and the allocator's retained heap never carry
// over from an earlier repetition or workload.
//
//   perfbench_runner --workload <name> --seed <n> --mode plain|traced
//                    [--threads <n>] [--smoke] [--out <dir>]
//   perfbench_runner --mode calibrate
//
// plain   no telemetry; end-to-end host times (setup/loop/teardown), peak
//         RSS, the sim-time outcomes and the determinism digest.
// traced  obs::Telemetry installed with tracing on, plus the benchmark's
//         own spans around every call into a layer (written to
//         <dir>/spans.json with parent ids and self times) and the
//         component registry dumped as planck-metrics-v1 to
//         <dir>/metrics.json. Also builds a standalone controller::Routing
//         to measure its time and memory.
// calibrate  a fixed-work integer loop; its time tracks host speed.
//
// The library is driven only through public calls; see README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "controller/routing.hpp"
#include "core/collector.hpp"
#include "net/addresses.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"
#include "workload/workloads.hpp"

using namespace planck;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Traffic {
  kBijection,  // seeded random bijection, one elephant per host
  kCollision,  // two elephants pigeonholed onto one uplink (fig15 class)
  kPodRing,    // every host of pod p -> same-index host of pod p+1
};

struct WorkloadSpec {
  Traffic traffic = Traffic::kBijection;
  int k = 4;                 // fat-tree radix
  bool sharded = false;      // ParallelEngine instead of one Simulation
  int threads = 1;           // ParallelEngine worker threads
  std::int64_t flow_bytes = 0;
  sim::Duration second_start = 0;  // kCollision: start of the second flow
  /// Unsharded runs stop at the first slice boundary after every flow has
  /// completed, and fail if that has not happened by `horizon`; sharded
  /// runs always run to `horizon` (a fixed schedule at any thread count).
  sim::Time horizon = 0;
  sim::Duration slice = sim::milliseconds(5);  // one run_until call each
};

constexpr std::int64_t kMiB = 1024 * 1024;

std::optional<WorkloadSpec> workload_spec(std::string_view name, bool smoke) {
  WorkloadSpec w;
  if (name == "te_bijection_k8") {
    w.traffic = Traffic::kBijection;
    w.k = smoke ? 4 : 8;
    w.flow_bytes = (smoke ? 8 : 6) * kMiB;
    w.horizon = sim::seconds(1);
  } else if (name == "setup_k10") {
    w.traffic = Traffic::kCollision;
    w.k = smoke ? 4 : 10;
    w.flow_bytes = 192 * kMiB;
    w.second_start = sim::milliseconds(5);
    w.horizon = sim::seconds(5);
  } else if (name == "sharded_ring_k8") {
    w.traffic = Traffic::kPodRing;
    w.k = smoke ? 4 : 8;
    w.sharded = true;
    // Timed on the engine's sequential path: on a shared machine, workers
    // waiting at the window barrier wake as late as other tenants make
    // them, and that swung the threaded loop time past the benchmark's
    // bound. run.py adds one multi-thread run (--threads) per run.
    w.threads = 1;
    w.flow_bytes = 8 * kMiB;
    w.horizon = sim::milliseconds(40);
  } else {
    return std::nullopt;
  }
  return w;
}

/// Two hosts outside pod 0 whose base cores coincide, so tree-0 flows from
/// hosts 0 and 1 (same edge switch) share that edge's uplink and the
/// agg->core cable: a guaranteed fig15-style collision at any radix.
bool colliding_destinations(const net::TopologyShape& sh, int* da, int* db) {
  std::vector<int> first(static_cast<std::size_t>(sh.num_core), -1);
  for (int h = sh.hosts_per_pod(); h < sh.num_hosts; ++h) {
    const int c = controller::Routing::base_core(h, sh.num_core);
    int& slot = first[static_cast<std::size_t>(c)];
    if (slot < 0) {
      slot = h;
    } else {
      *da = slot;
      *db = h;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Host-side measurement helpers
// ---------------------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Current resident set size in MiB (/proc/self/statm).
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Process-lifetime peak resident set size in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Benchmark-side spans: name, start, end, id and parent id, kept in
/// memory and written out when the run ends. Disabled in plain runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    origin_ = Clock::now();
  }

  void open(std::string name) {
    if (!enabled_) return;
    const int parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{static_cast<int>(spans_.size()) + 1, parent,
                          std::move(name), now(), -1.0});
    stack_.push_back(spans_.back().id);
  }
  void close() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(stack_.back() - 1)].end = now();
    stack_.pop_back();
  }

  /// Host seconds of the first span called `name` (0 when absent).
  double duration(std::string_view name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end - s.start;
    }
    return 0.0;
  }

  /// Writes every span with its self time: its duration minus the part
  /// its children cover (children are sequential, so a plain sum).
  bool write(const std::string& path) const {
    std::vector<double> child_time(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end - s.start;
      std::fprintf(f,
                   "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"dur_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   s.id, s.parent, s.name.c_str(), s.start, s.end, dur,
                   dur - child_time[static_cast<std::size_t>(s.id)],
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    int id;
    int parent;  // 0 = root
    std::string name;
    double start;  // host seconds since the recorder was created
    double end;
  };
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name) : rec_(rec) {
    rec_.open(std::move(name));
  }
  ~ScopedSpan() { rec_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

// ---------------------------------------------------------------------------
// Small JSON writer for the result line
// ---------------------------------------------------------------------------

class JsonLine {
 public:
  void num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void count(std::string_view key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(std::string_view key, std::string_view v) {
    field(key, "\"" + std::string(v) + "\"");
  }
  void boolean(std::string_view key, bool v) { field(key, v ? "true" : "false"); }
  void list(std::string_view key, const std::vector<double>& values) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? ", " : "", values[i]);
      s += buf;
    }
    field(key, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + value;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// One workload instance
// ---------------------------------------------------------------------------

struct FlowSlot {
  net::FlowKey key;
  sim::Time start = -1;
  sim::Duration detected = -1;  // start -> first congestion event naming it
  tcp::FlowStats stats;
  bool done = false;
};

struct Reroute {
  std::uint64_t id;
  int dst_host;
  int tree;
  sim::Time detected_at;
};

int run_workload(const WorkloadSpec& w, std::string_view name,
                 std::uint64_t seed, bool traced, const std::string& out_dir) {
  SpanRecorder spans(traced);
  JsonLine out;
  out.str("workload", name);
  out.count("seed", seed);
  out.str("mode", traced ? "traced" : "plain");
  out.count("threads", static_cast<std::uint64_t>(w.threads));

  // Installed before any component is constructed, outlives all of them.
  obs::Telemetry telemetry;
  telemetry.enable_tracing(traced);

  const Clock::time_point t_start = Clock::now();
  spans.open("run");
  spans.open("setup");

  std::optional<net::TopologyGraph> graph;
  {
    ScopedSpan s(spans, "net.make_fat_tree");
    graph.emplace(net::make_fat_tree(
        w.k, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)}));
  }
  const net::TopologyShape& shape = graph->shape();

  // Traced runs only: a standalone Routing(graph), kept alive until after
  // teardown so the Testbed's own allocations land on fresh pages and the
  // teardown span times only what a plain run destroys.
  std::optional<controller::Routing> routing;
  double routing_rss_mb = 0.0;
  if (traced) {
    const double before = current_rss_mb();
    ScopedSpan s(spans, "controller.Routing");
    routing.emplace(*graph);
    routing_rss_mb = current_rss_mb() - before;
  }

  std::unique_ptr<sim::Simulation> single;
  std::unique_ptr<sim::ParallelEngine> engine;
  std::optional<net::PartitionMap> pmap;
  if (w.sharded) {
    {
      ScopedSpan s(spans, "net.make_partition_map");
      pmap.emplace(net::make_partition_map(*graph));
    }
    engine = std::make_unique<sim::ParallelEngine>(
        pmap->num_partitions, pmap->lookahead(), w.threads);
    if (traced) engine->set_telemetry(&telemetry);
  } else {
    single = std::make_unique<sim::Simulation>();
    if (traced) single->set_telemetry(&telemetry);
  }

  workload::TestbedConfig cfg;
  cfg.seed = seed;
  std::unique_ptr<workload::Testbed> bed;
  double testbed_rss_mb = 0.0;
  {
    const double before = current_rss_mb();
    ScopedSpan s(spans, "workload.Testbed");
    bed = engine ? std::make_unique<workload::Testbed>(*engine, *pmap, *graph,
                                                       cfg)
                 : std::make_unique<workload::Testbed>(*single, *graph, cfg);
    testbed_rss_mb = current_rss_mb() - before;
  }
  sim::Simulation& control = bed->sim();

  std::unique_ptr<te::PlanckTe> te;
  {
    ScopedSpan s(spans, "te.PlanckTe");
    te = std::make_unique<te::PlanckTe>(control, bed->controller(),
                                        te::PlanckTeConfig{});
  }

  // --- observation hooks (read-only with respect to the schedule) --------
  std::vector<FlowSlot> flows;
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> flow_index;
  // Congestion events arrive on the control partition, after PlanckTE
  // handled them (subscribed later). A flow PlanckTE just moved is
  // recorded as a pending reroute.
  std::vector<Reroute> reroutes;
  // Every reroute of a flow stays listed: PlanckTE may move a flow again
  // before the previous move's new MAC has shown up in a sample.
  std::unordered_map<net::FlowKey, std::vector<Reroute>, net::FlowKeyHash>
      pending;
  std::unordered_map<net::FlowKey, int, net::FlowKeyHash> last_tree;
  bed->controller().subscribe_congestion([&](const core::CongestionEvent& e) {
    // Detection: the first event naming a flow together with another flow
    // that started no later than it (for setup_k10, the second elephant's
    // collision with the first).
    sim::Time latest_start = -1;
    int named = 0;
    for (const core::FlowRate& fr : e.flows) {
      const auto it = flow_index.find(fr.key);
      if (it == flow_index.end()) continue;
      ++named;
      latest_start = std::max(latest_start, flows[it->second].start);
    }
    for (const core::FlowRate& fr : e.flows) {
      const auto it = flow_index.find(fr.key);
      if (named < 2 || it == flow_index.end()) continue;
      FlowSlot& f = flows[it->second];
      if (f.start == latest_start && f.detected < 0) {
        f.detected = e.detected_at - f.start;
      }
    }
    const auto& known = te->state().flows();
    for (const core::FlowRate& fr : e.flows) {
      const auto it = known.find(fr.key);
      if (it == known.end() || it->second.last_reroute != control.now()) {
        continue;
      }
      int& tree = last_tree[fr.key];
      if (it->second.tree == tree) continue;
      tree = it->second.tree;
      const Reroute r{reroutes.size(), it->second.dst_host, tree,
                      e.detected_at};
      reroutes.push_back(r);
      pending[fr.key].push_back(r);
    }
  });
  // Mirrored samples arrive on each collector's own partition: every
  // collector records into its own map (no shared writes across threads);
  // `pending` is only written in the serial control phase.
  const auto& collectors = bed->collectors();
  std::vector<std::unordered_map<std::uint64_t, sim::Time>> first_new_mac(
      collectors.size());
  for (std::size_t ci = 0; ci < collectors.size(); ++ci) {
    collectors[ci]->set_sample_hook([&, ci](const core::Sample& s) {
      if (s.packet.payload == 0 || pending.empty()) return;
      const auto it = pending.find(s.packet.flow_key());
      if (it == pending.end()) return;
      for (const Reroute& r : it->second) {
        if (s.packet.dst_mac == net::host_mac(r.dst_host, r.tree)) {
          first_new_mac[ci].try_emplace(r.id, s.received_at);
        }
      }
    });
  }

  // --- flows ---------------------------------------------------------------
  std::vector<workload::FlowSpec> specs;
  if (w.traffic == Traffic::kBijection) {
    sim::Rng rng(seed);
    specs = workload::make_random_bijection(
        shape.num_hosts, sim::Bytes{w.flow_bytes}, rng);
  } else if (w.traffic == Traffic::kCollision) {
    int da = -1;
    int db = -1;
    if (!colliding_destinations(shape, &da, &db)) {
      std::fprintf(stderr, "no colliding destination pair at k=%d\n", w.k);
      return 2;
    }
    specs.push_back({0, da, sim::Bytes{w.flow_bytes}, 0});
    specs.push_back({1, db, sim::Bytes{w.flow_bytes}, w.second_start});
  } else {
    const int per_pod = shape.hosts_per_pod();
    for (int h = 0; h < shape.num_hosts; ++h) {
      specs.push_back(
          {h, (h + per_pod) % shape.num_hosts, sim::Bytes{w.flow_bytes}, 0});
    }
  }
  flows.resize(specs.size());
  flow_index.reserve(specs.size() * 2);
  pending.reserve(specs.size() * 2);
  const auto start_flow = [&](std::size_t i) {
    const workload::FlowSpec& f = specs[i];
    FlowSlot& slot = flows[i];
    const tcp::TcpSender* sender = bed->host(f.src)->start_flow(
        net::host_ip(f.dst), 5001, f.bytes.count(),
        [&slot](const tcp::FlowStats& st) {
          slot.stats = st;
          slot.done = true;
        });
    slot.key = sender->key();
    slot.start = f.start_offset;
    flow_index.emplace(slot.key, i);
  };
  {
    ScopedSpan s(spans, "tcp.start_flows");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].start_offset == 0) {
        start_flow(i);
      } else {
        control.schedule_at(specs[i].start_offset, [&, i] { start_flow(i); });
      }
    }
  }
  spans.close();  // setup
  const Clock::time_point t_setup = Clock::now();

  // --- event loop, in fixed sim-time slices --------------------------------
  const auto all_done = [&] {
    return std::all_of(flows.begin(), flows.end(),
                       [](const FlowSlot& f) { return f.done; });
  };
  spans.open("loop");
  sim::Time now = 0;
  while (now < w.horizon) {
    now = std::min(now + w.slice, w.horizon);
    ScopedSpan s(spans, "sim.run_until");
    if (engine) {
      engine->run_until(now);
    } else {
      single->run_until(now);
      if (all_done()) break;
    }
  }
  spans.close();  // loop
  const Clock::time_point t_loop = Clock::now();

  // --- outcomes (sim time) -------------------------------------------------
  std::vector<double> fct_ms;
  std::vector<double> detect_ms;
  double goodput_sum = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t completed = 0;
  for (const FlowSlot& f : flows) {
    if (f.detected >= 0) detect_ms.push_back(sim::to_milliseconds(f.detected));
    if (!f.done) continue;
    ++completed;
    fct_ms.push_back(
        sim::to_milliseconds(f.stats.completed_at - f.stats.started_at));
    goodput_sum += f.stats.throughput_bps() / 1e9;
    packets_sent += static_cast<std::uint64_t>(f.stats.packets_sent.count());
    retransmits += f.stats.retransmits;
    timeouts += f.stats.timeouts;
  }
  std::vector<double> reroute_ms;
  for (const Reroute& r : reroutes) {
    sim::Time first = -1;
    for (const auto& seen : first_new_mac) {
      const auto it = seen.find(r.id);
      if (it != seen.end() && (first < 0 || it->second < first)) {
        first = it->second;
      }
    }
    if (first >= r.detected_at) {
      reroute_ms.push_back(sim::to_milliseconds(first - r.detected_at));
    }
  }

  out.count("flows_started", flows.size());
  out.count("flows_completed", completed);
  out.list("fct_ms", fct_ms);
  out.num("avg_flow_gbps",
          completed > 0 ? goodput_sum / static_cast<double>(completed) : 0.0);
  out.list("reroute_ms", reroute_ms);
  out.list("detect_ms", detect_ms);
  out.num("sim_end_ms", sim::to_milliseconds(now));

  // --- per-layer counts, read through public accessors ---------------------
  std::uint64_t mirror_sent = 0;
  std::uint64_t mirror_drops = 0;
  std::uint64_t data_drops = 0;
  std::int64_t shared_hwm = 0;
  for (int i = 0; i < bed->num_switches(); ++i) {
    const switchsim::Switch& sw = *bed->switch_by_index(i);
    mirror_sent += sw.mirror_sent();
    mirror_drops += sw.mirror_drops();
    for (int p = 0; p < sw.num_ports(); ++p) {
      if (p == sw.monitor_port()) continue;
      data_drops += static_cast<std::uint64_t>(sw.counters(p).drops.count());
    }
    shared_hwm = std::max(shared_hwm, sw.buffer().shared_used_hwm().count());
  }
  std::uint64_t samples = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inference_misses = 0;
  for (const auto& c : collectors) {
    samples += c->samples_received();
    events_fired += c->events_fired();
    evictions += c->evictions();
    inference_misses += c->inference_misses();
  }
  const controller::Controller& ctl = bed->controller();
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  if (engine) {
    digest = engine->determinism_digest();
    events = engine->events_executed();
    std::uint64_t busiest = 0;
    std::uint64_t stalls = 0;
    for (int p = 0; p < engine->data_partitions(); ++p) {
      busiest = std::max(busiest, engine->partition(p).events_executed());
      stalls += engine->barrier_stalls(p);
    }
    out.count("engine.windows", engine->windows());
    out.count("engine.data_partitions",
              static_cast<std::uint64_t>(engine->data_partitions()));
    out.count("engine.busiest_partition_events", busiest);
    out.count("engine.barrier_stalls", stalls);
    out.count("engine.control_events", engine->control().events_executed());
  } else {
    digest = single->determinism_digest();
    events = single->events_executed();
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  out.str("digest", digest_hex);
  out.count("sim.events", events);
  out.count("switch.mirror_sent", mirror_sent);
  out.count("switch.mirror_drops", mirror_drops);
  out.count("switch.data_drops", data_drops);
  out.count("switch.shared_hwm_bytes_max",
            static_cast<std::uint64_t>(shared_hwm));
  out.count("tcp.packets_sent", packets_sent);
  out.count("tcp.retransmits", retransmits);
  out.count("tcp.timeouts", timeouts);
  out.count("collector.samples", samples);
  out.count("collector.events_fired", events_fired);
  out.count("collector.evictions", evictions);
  out.count("collector.inference_misses", inference_misses);
  out.count("te.events_processed", te->events_processed());
  out.count("te.reroutes", te->reroutes());
  out.count("controller.epochs_opened", ctl.epochs().opened());
  out.count("controller.epochs_committed", ctl.epochs().committed());
  out.count("controller.epoch_fallbacks", ctl.epochs().fallbacks());
  out.count("control_channel.rpc_calls", ctl.channel().rpc_calls());
  out.count("control_channel.rpc_retries", ctl.channel().rpc_retries());
  out.count("controller.route_paths",
            static_cast<std::uint64_t>(ctl.routing().num_hosts()) *
                static_cast<std::uint64_t>(ctl.routing().num_hosts()) *
                static_cast<std::uint64_t>(ctl.routing().num_trees()));

  bool files_ok = true;
  if (traced) {
    // Callback gauges read live components: export before teardown.
    files_ok = telemetry.metrics().write_json(out_dir + "/metrics.json");
    out.count("obs.trace_events", telemetry.tracer().size());
  }

  // --- teardown (destructors), in reverse construction order ---------------
  const Clock::time_point t_teardown = Clock::now();
  {
    ScopedSpan s(spans, "teardown");
    te.reset();
    bed.reset();
    engine.reset();
    single.reset();
    pmap.reset();
    graph.reset();
  }
  spans.close();  // run
  const Clock::time_point t_end = Clock::now();
  routing.reset();

  out.num("setup_s", seconds_between(t_start, t_setup));
  out.num("loop_s", seconds_between(t_setup, t_loop));
  out.num("teardown_s", seconds_between(t_teardown, t_end));
  out.num("run_s", seconds_between(t_start, t_end));
  out.num("peak_rss_mb", peak_rss_mb());
  if (traced) {
    out.num("net.graph_build_s", spans.duration("net.make_fat_tree"));
    out.num("net.partition_map_s", spans.duration("net.make_partition_map"));
    out.num("controller.routing_build_s", spans.duration("controller.Routing"));
    out.num("controller.routing_rss_mb", routing_rss_mb);
    out.num("workload.testbed_build_s", spans.duration("workload.Testbed"));
    out.num("workload.testbed_rss_mb", testbed_rss_mb);
    out.num("te.build_s", spans.duration("te.PlanckTe"));
    files_ok = spans.write(out_dir + "/spans.json") && files_ok;
  }
  out.boolean("files_ok", files_ok);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

/// Fixed integer work (splitmix64 chain); its host time tracks CPU speed
/// and contention, so drift between batches shows beside host-time metrics.
int run_calibration() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t z = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 100'000'000; ++i) {
    z += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    acc ^= x ^ (x >> 31);
  }
  const double secs = seconds_between(t0, Clock::now());
  std::printf("{\"calibration_s\": %.17g, \"checksum\": %" PRIu64 "}\n", secs,
              acc);
  return 0;
}

std::string arg_value(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return std::string();
}

bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = arg_value(argc, argv, "--mode");
  if (mode == "calibrate") return run_calibration();
  if (mode != "plain" && mode != "traced") {
    std::fprintf(stderr, "--mode must be plain, traced or calibrate\n");
    return 2;
  }
  const std::string name = arg_value(argc, argv, "--workload");
  std::optional<WorkloadSpec> spec =
      workload_spec(name, has_flag(argc, argv, "--smoke"));
  if (!spec) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const std::string seed_text = arg_value(argc, argv, "--seed");
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (seed_text.empty() || end == nullptr || *end != '\0') {
    std::fprintf(stderr, "--seed needs a non-negative integer\n");
    return 2;
  }
  const std::string threads = arg_value(argc, argv, "--threads");
  if (!threads.empty()) spec->threads = std::max(1, std::atoi(threads.c_str()));
  const bool traced = mode == "traced";
  const std::string out_dir = arg_value(argc, argv, "--out");
  if (traced && out_dir.empty()) {
    std::fprintf(stderr, "--mode traced needs --out <dir>\n");
    return 2;
  }
  return run_workload(*spec, name, seed, traced, out_dir);
}
