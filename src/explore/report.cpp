#include "src/explore/report.h"

#include "src/sem/config.h"
#include "src/support/telemetry.h"

namespace copar::telemetry {

void write_stat_map(support::JsonWriter& w, std::string_view key,
                    std::initializer_list<const std::map<std::string, std::uint64_t>*> maps) {
  w.key(key);
  w.begin_object();
  for (const auto* map : maps) {
    for (const auto& [name, value] : *map) {
      w.key(name);
      w.value(value);
    }
  }
  w.end_object();
}

void write_phases(support::JsonWriter& w) {
  const Telemetry& t = Telemetry::global();
  w.key("phases_ms");
  w.begin_object();
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const Phase p = static_cast<Phase>(i);
    if (t.phase_count(p) == 0 && t.phase_ns(p) == 0) continue;
    w.key(phase_name(p));
    w.value(static_cast<double>(t.phase_ns(p)) / 1e6);
  }
  w.end_object();
  w.key("phase_counts");
  w.begin_object();
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const Phase p = static_cast<Phase>(i);
    if (t.phase_count(p) == 0) continue;
    w.key(phase_name(p));
    w.value(t.phase_count(p));
  }
  w.end_object();
}

void write_memory(support::JsonWriter& w, std::uint64_t visited_bytes) {
  w.key("memory");
  w.begin_object();
  w.key("peak_rss_bytes");
  w.value(peak_rss_bytes());
  if (visited_bytes != 0) {
    w.key("visited_bytes");
    w.value(visited_bytes);
  }
  w.end_object();
}

}  // namespace copar::telemetry

namespace copar::explore {

void write_json_report(support::JsonWriter& w, std::string_view command, std::string_view file,
                       const ExploreResult& r, const ExploreOptions& o,
                       const sem::LoweredProgram* prog) {
  w.begin_object();
  w.key("tool");
  w.value("copar");
  w.key("command");
  w.value(command);
  w.key("file");
  w.value(file);

  w.key("options");
  w.begin_object();
  w.key("reduction");
  w.value(o.reduction == Reduction::Stubborn ? "stubborn" : "full");
  w.key("coarsen");
  w.value(o.coarsen);
  w.key("sleep_sets");
  w.value(o.sleep_sets);
  w.key("cycle_proviso");
  w.value(true);  // always on under stubborn sets; kept for the report schema
  w.key("max_configs");
  w.value(o.max_configs);
  w.key("threads");
  w.value(static_cast<std::uint64_t>(o.threads));
  w.key("exact_keys");
  w.value(o.exact_keys);
  w.end_object();

  telemetry::write_stat_map(w, "counters", {&r.stats.all()});
  telemetry::write_stat_map(w, "gauges", {&r.stats.gauges()});
  telemetry::write_phases(w);

  // Engine-recorded timings (per-worker phase attribution from the
  // parallel engine; the global phase timers above cannot see inside
  // worker threads).
  if (!r.stats.times_ns().empty()) {
    w.key("timings_ms");
    w.begin_object();
    for (const auto& [name, ns] : r.stats.times_ns()) {
      w.key(name);
      w.value(static_cast<double>(ns) / 1e6);
    }
    w.end_object();
  }

  telemetry::write_memory(w, r.stats.gauge("visited_bytes"));

  // Sampler timeline (present only when `--sample` collected anything):
  // the bounded gauge time series, same shape as metrics-dump's
  // "timeline" member.
  if (!telemetry::Telemetry::global().timeline().empty()) {
    w.key("timeline");
    telemetry::Telemetry::global().write_timeline_json(w);
  }

  w.key("result");
  w.begin_object();
  w.key("configs");
  w.value(r.num_configs);
  w.key("transitions");
  w.value(r.num_transitions);
  w.key("terminals");
  w.value(static_cast<std::uint64_t>(r.terminals.size()));
  w.key("deadlock");
  w.value(r.deadlock_found);
  w.key("truncated");
  w.value(r.truncated);
  w.key("violations");
  w.begin_array();
  for (std::uint32_t v : r.violations) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.key("faults");
  w.begin_array();
  for (const auto& [stmt, kind] : r.faults) {
    w.begin_object();
    w.key("stmt");
    w.value(static_cast<std::uint64_t>(stmt));
    w.key("kind");
    w.value(sem::fault_name(static_cast<sem::Fault>(kind)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (prog != nullptr) {
    w.key("outcomes");
    w.begin_array();
    for (const auto& [key, t] : r.terminals) {
      w.begin_object();
      w.key("deadlock");
      w.value(t.deadlock);
      w.key("globals");
      w.begin_object();
      for (const sem::GlobalSlot& g : prog->globals()) {
        if (g.fun != nullptr) continue;
        const auto v = t.config.store.read(0, g.slot);
        w.key(prog->module().interner().spelling(g.name));
        if (v.is_int()) {
          w.value(static_cast<std::int64_t>(v.as_int()));
        } else {
          w.value(v.to_string());
        }
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
}

}  // namespace copar::explore
