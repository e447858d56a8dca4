#include "core/collector.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace planck::core {

Collector::Collector(sim::Simulation& simulation, std::string name,
                     int switch_node, const CollectorConfig& config)
    : sim_(simulation),
      name_(std::move(name)),
      switch_node_(switch_node),
      config_(config),
      flows_(config.estimator),
      sweep_timer_(simulation, [this] { sweep(); }),
      drain_timer_(simulation, [this] { drain_event(); }) {
  register_metrics();
  sweep_timer_.schedule(config_.sweep_interval);
}

void Collector::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  const std::string comp = "collector." + name_;
  reg.gauge(comp, "samples_received",
            [this] { return static_cast<double>(samples_received_); });
  reg.gauge(comp, "samples_per_sec", [this] {
    const double elapsed = sim::to_seconds(sim_.now());
    return elapsed > 0.0 ? static_cast<double>(samples_received_) / elapsed
                         : 0.0;
  });
  reg.gauge(comp, "events_fired",
            [this] { return static_cast<double>(events_fired_); });
  reg.gauge(comp, "inference_misses",
            [this] { return static_cast<double>(inference_misses_); });
  reg.gauge(comp, "samples_dropped_offline",
            [this] { return static_cast<double>(samples_dropped_offline_); });
  reg.gauge(comp, "flow_table_size",
            [this] { return static_cast<double>(flows_.size()); });
  reg.gauge(comp, "backpressure_mode",
            [this] { return static_cast<double>(mode_); });
  reg.gauge(comp, "events_queued",
            [this] { return static_cast<double>(event_queue_.size()); });
  reg.gauge(comp, "events_shed",
            [this] { return static_cast<double>(events_shed_); });
  reg.gauge(comp, "events_dispatched",
            [this] { return static_cast<double>(events_dispatched_); });
  reg.gauge(comp, "samples_sampled_down",
            [this] { return static_cast<double>(samples_sampled_down_); });
  evictions_metric_ = &reg.counter(comp, "evictions");
}

void Collector::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  PLANCK_TRACE(sim_, "collector." + name_, online ? "online" : "offline");
  if (!online) {
    ++outages_;
    sweep_timer_.cancel();  // the process is dead; housekeeping stops too
    // Queued-but-undelivered events die with the process.
    events_shed_ += event_queue_.size();
    event_queue_.clear();
    drain_timer_.cancel();
    if (mode_ != BackpressureMode::kNormal) {
      mode_ = BackpressureMode::kNormal;
      ++mode_changes_;
    }
  } else {
    // Restart: purge everything that went stale during the outage before
    // answering queries again, then resume the periodic sweep.
    sweep();
  }
}

void Collector::set_contribution(FlowRecord& rec, double rate) {
  PortState& util = port_state(rec.out_port);
  if (rec.contributing_bps == 0.0 && rate != 0.0) ++util.flows;
  util.bps += rate - rec.contributing_bps;
  rec.contributing_bps = rate;
}

void Collector::release_contribution(int out_port, double bps) {
  if (bps <= 0.0 || find_port(out_port) == nullptr) return;
  PortState& util = ports_[static_cast<std::size_t>(out_port)];
  util.bps -= bps;
  if (util.flows > 0) --util.flows;
  if (util.flows == 0) util.bps = 0.0;  // no contributors: no FP dust
}

void Collector::handle_packet(const net::Packet& packet, int /*in_port*/) {
  if (!online_) {
    ++samples_dropped_offline_;
    return;
  }
  ++samples_received_;
  last_sample_at_ = sim_.now();

  if (config_.sample_ring_capacity > 0 || sample_hook_) {
    const Sample sample{sim_.now(), packet};
    if (ring_.size() < config_.sample_ring_capacity) {
      ring_.push_back(sample);
    } else if (!ring_.empty()) {
      ring_[ring_next_] = sample;
      ring_next_ = (ring_next_ + 1) % ring_.size();
    }
    if (sample_hook_) sample_hook_(sample);
  }

  if (packet.proto == net::Protocol::kArp) return;

  // Sample-down backpressure: under event-queue pressure only every Nth
  // sample pays for flow-table and estimator work (the ring and hook above
  // still see everything — raw capture is cheap, estimation is not).
  if (mode_ >= BackpressureMode::kSampleDown &&
      ++sample_down_counter_ % config_.backpressure.sample_down_factor != 0) {
    ++samples_sampled_down_;
    return;
  }

  FlowRecord& rec = flows_.upsert(packet.flow_key(), sim_.now());
  rec.src_mac = packet.src_mac;
  rec.dst_mac = packet.dst_mac;
  ++rec.samples;
  rec.sample_bytes += packet.payload;

  // Port inference from the controller-shared forwarding view (§3.2.1).
  const int out = route_view_.out_port(packet.dst_mac);
  const int in = route_view_.in_port(packet.src_mac, packet.dst_mac);
  if (out < 0) ++inference_misses_;
  rec.in_port = in;
  if (out != rec.out_port) {
    // The flow moved to a different link (reroute / dst_mac tree change):
    // fully unwind its contribution from the old port before it starts
    // contributing to the new one.
    release_contribution(rec.out_port, rec.contributing_bps);
    rec.contributing_bps = 0.0;
    rec.out_port = out;
  }

  if (packet.payload == 0) return;  // pure ACKs carry no byte-count delta

  if (rec.estimator.add_sample(sim_.now(), packet.seq, packet.payload) &&
      rec.out_port >= 0) {
    set_contribution(rec, rec.estimator.rate_bps());
    maybe_fire_event(rec.out_port);
  }
}

double Collector::link_utilization_bps(int out_port) const {
  if (!online_) return 0.0;
  const PortState* port = find_port(out_port);
  return port == nullptr ? 0.0 : std::max(0.0, port->bps);
}

std::vector<Sample> Collector::raw_samples() const {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  const auto next = ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_);
  out.insert(out.end(), next, ring_.end());
  out.insert(out.end(), ring_.begin(), next);
  return out;
}

std::vector<FlowRate> Collector::flows_on_link(int out_port) const {
  std::vector<FlowRate> out;
  if (!online_) return out;
  for (const auto& [key, rec] : flows_.flows()) {
    if (rec.out_port != out_port || rec.contributing_bps <= 0.0) continue;
    out.push_back(FlowRate{key, rec.src_mac, rec.dst_mac, rec.rate_bps()});
  }
  // Rate-descending with a key tiebreak: congestion events annotate flows
  // in this order and TE consumes them in it, so ties must be stable.
  std::sort(out.begin(), out.end(), [](const FlowRate& a, const FlowRate& b) {
    if (a.rate_bps != b.rate_bps) return a.rate_bps > b.rate_bps;
    return a.key < b.key;
  });
  return out;
}

void Collector::maybe_fire_event(int out_port, bool from_sweep) {
  if (mode_ == BackpressureMode::kSweepOnly && !from_sweep) {
    // Degraded to sweep-only: the per-sample fast path stops evaluating;
    // the housekeeping sweep fires at most one event per link per period.
    ++events_deferred_to_sweep_;
    return;
  }
  if (find_port(out_port) == nullptr) return;
  PortState& port = ports_[static_cast<std::size_t>(out_port)];
  if (port.capacity_bps < 0) return;
  const double util = link_utilization_bps(out_port);
  if (util < config_.congestion_threshold *
                 static_cast<double>(port.capacity_bps)) {
    return;
  }
  if (port.last_event != 0 &&
      sim_.now() - port.last_event < config_.event_debounce) {
    return;
  }
  port.last_event = sim_.now();

  CongestionEvent event;
  event.switch_node = switch_node_;
  event.out_port = out_port;
  event.utilization_bps = util;
  event.capacity_bps = port.capacity_bps;
  event.detected_at = sim_.now();
  event.flows = flows_on_link(out_port);
  ++events_fired_;
  PLANCK_TRACE_ARGS(sim_, "collector." + name_, "congestion",
                    obs::argf("\"out_port\":%d,\"util_gbps\":%.3f,"
                              "\"flows\":%zu",
                              out_port, util / 1e9, event.flows.size()));
  emit_event(std::move(event));
}

void Collector::emit_event(CongestionEvent event) {
  const BackpressureConfig& bp = config_.backpressure;
  if (bp.queue_capacity == 0) {
    // Backpressure plane off: legacy synchronous dispatch.
    for (const auto& handler : congestion_handlers_) handler(event);
    return;
  }
  if (mode_ >= BackpressureMode::kShed ||
      event_queue_.size() >= bp.queue_capacity) {
    ++events_shed_;
    PLANCK_TRACE_ARGS(sim_, "collector." + name_, "event_shed",
                      obs::argf("\"queued\":%zu", event_queue_.size()));
    update_backpressure_mode();
    return;
  }
  event_queue_.push_back(std::move(event));
  update_backpressure_mode();
  if (!drain_timer_.pending()) drain_timer_.schedule(bp.drain_interval);
}

void Collector::drain_event() {
  if (!online_ || event_queue_.empty()) return;
  const CongestionEvent event = std::move(event_queue_.front());
  event_queue_.pop_front();
  ++events_dispatched_;
  for (const auto& handler : congestion_handlers_) handler(event);
  update_backpressure_mode();
  if (!event_queue_.empty()) {
    drain_timer_.schedule(config_.backpressure.drain_interval);
  }
}

void Collector::update_backpressure_mode() {
  const BackpressureConfig& bp = config_.backpressure;
  const std::size_t depth = event_queue_.size();
  // Heaviest mode whose watermark the depth reaches wins; a mode already
  // engaged persists until the queue drains below half its watermark.
  auto holds = [&](std::size_t watermark, bool engaged) {
    if (watermark == 0) return false;
    return depth >= watermark || (engaged && depth >= (watermark + 1) / 2);
  };
  BackpressureMode target = BackpressureMode::kNormal;
  if (holds(bp.sample_down_watermark,
            mode_ >= BackpressureMode::kSampleDown)) {
    target = BackpressureMode::kSampleDown;
  }
  if (holds(bp.shed_watermark, mode_ >= BackpressureMode::kShed)) {
    target = BackpressureMode::kShed;
  }
  if (holds(bp.sweep_watermark, mode_ == BackpressureMode::kSweepOnly)) {
    target = BackpressureMode::kSweepOnly;
  }
  if (target == mode_) return;
  PLANCK_TRACE_ARGS(sim_, "collector." + name_, "backpressure_mode",
                    obs::argf("\"from\":%d,\"to\":%d,\"queued\":%zu",
                              static_cast<int>(mode_),
                              static_cast<int>(target), depth));
  mode_ = target;
  ++mode_changes_;
}

void Collector::sweep() {
  const sim::Time now = sim_.now();

  // Key-ordered traversal: the stale/evicted records subtract from the
  // floating-point utilization aggregates, and FP subtraction is not
  // associative — hash order must not pick the summation order.
  std::vector<net::FlowKey> keys;
  keys.reserve(flows_.size());
  // planck-lint: allow(unordered-iteration) — collect-then-sort
  for (const auto& [key, rec] : flows_.flows()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  // Stale rate estimates stop counting toward utilization.
  for (const net::FlowKey& key : keys) {
    FlowRecord& rec = *flows_.find(key);
    if (rec.contributing_bps > 0.0 &&
        now - rec.estimator.estimated_at() > config_.rate_staleness) {
      release_contribution(rec.out_port, rec.contributing_bps);
      rec.contributing_bps = 0.0;
    }
  }

  // Evict idle flows entirely (evict_idle returns records in key order).
  // Every record's residual contribution is unwound, so a port whose
  // flows have all left reads exactly 0.0 again (see PortUtil). The
  // cutoff interval is closed: a flow last seen exactly flow_idle_timeout
  // ago is evicted on this sweep (FlowTable::evict_idle documents the
  // boundary; the regression test pins it).
  std::uint64_t evicted = 0;
  for (const FlowRecord& rec :
       flows_.evict_idle(now - config_.flow_idle_timeout)) {
    release_contribution(rec.out_port, rec.contributing_bps);
    ++evicted;
  }
  if (evicted > 0) {
    evictions_ += evicted;
    PLANCK_METRIC(evictions_metric_, add(evicted));
    PLANCK_TRACE_ARGS(sim_, "collector." + name_, "evictions",
                      obs::argf("\"count\":%llu",
                                static_cast<unsigned long long>(evicted)));
  }

  // Degrade-to-sweep backpressure: while the fast path is muted, evaluate
  // congestion once per period, port-ordered — at most one event per
  // congested link instead of one per hot sample.
  if (mode_ == BackpressureMode::kSweepOnly) {
    for (std::size_t port = 0; port < ports_.size(); ++port) {
      maybe_fire_event(static_cast<int>(port), /*from_sweep=*/true);
    }
  }

  // Per-sweep counter tracks, emitted only while the sample stream is
  // active so an idle network adds nothing to the trace.
  if (samples_received_ != samples_traced_) {
    samples_traced_ = samples_received_;
    PLANCK_TRACE_COUNTER(sim_, "collector." + name_, "samples_received",
                         samples_received_);
    PLANCK_TRACE_COUNTER(sim_, "collector." + name_, "flow_table_size",
                         flows_.size());
  }

  sweep_timer_.schedule(config_.sweep_interval);
}

}  // namespace planck::core
