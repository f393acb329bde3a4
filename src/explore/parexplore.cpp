#include "src/explore/parexplore.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/explore/core.h"
#include "src/explore/frontier.h"
#include "src/sem/cowstats.h"
#include "src/explore/proviso.h"
#include "src/explore/stubborn.h"
#include "src/explore/visited.h"
#include "src/support/telemetry.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::ActionKind;
using sem::Configuration;
using sem::Pid;
using support::Fingerprint;

namespace {

/// Sleep masks are 64-bit pid bitmasks; processes with pid >= 64 simply
/// never sleep (sound — sleep sets only prune).
constexpr Pid kMaxSleepPid = 64;

/// One unit of work: a configuration to expand. `sleep` is its sleep set
/// (pid bitmask) in sleep-sets mode. `redo` != 0 marks a re-exploration
/// item (sleep revisit rule): fire exactly the awakened pids in `redo`
/// instead of a fresh expansion.
struct WorkItem {
  Configuration cfg;
  Fingerprint fp;
  std::uint64_t sleep = 0;
  std::uint64_t redo = 0;
};

/// An edge recorded by fingerprints; translated to dense node ids after the
/// join (node ids are a post-join sort, see merge below).
struct EdgeFp {
  Fingerprint from;
  Fingerprint to;
  std::uint32_t stmt = sem::kNoStmt;
  ActionKind kind = ActionKind::None;
};

/// Everything one worker accumulates privately, merged (summed / unioned)
/// after the join. The vectors feed the deterministic post-join merges.
struct WorkerCtx {
  ExploreCounters counters;
  std::uint64_t transitions = 0;
  std::set<std::uint32_t> violations;
  std::set<std::pair<std::uint32_t, std::uint8_t>> faults;
  Recorder recorder;
  std::vector<EdgeFp> edges;              // record_graph
  std::vector<Fingerprint> node_fps;      // record_graph: admitted states
  std::vector<Fingerprint> terminal_fps;  // record_graph
  std::vector<Fingerprint> deadlock_fps;  // record_graph
};

}  // namespace

std::optional<Diagnostic> parallel_unsupported(const ExploreOptions& options) {
  if (options.threads > 1 && options.sleep_sets && options.record_graph) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = "par-unsupported";
    d.message =
        "--sleep together with --record-graph requires the sequential engine "
        "(--threads 1): the reduced graph recorded under sleep sets depends on "
        "exploration order";
    return d;
  }
  return std::nullopt;
}

ExploreResult parallel_explore(const sem::LoweredProgram& program,
                               const ExploreOptions& options) {
  if (const auto d = parallel_unsupported(options)) {
    throw Error(d->code + ": " + d->message);
  }
  require(options.threads > 1, "parallel_explore: threads must be > 1");

  const StaticInfo static_info(program);
  const bool metrics = telemetry::Telemetry::global().metrics_enabled();
  const sem::cowstats::Snapshot cow0 = sem::cowstats::snapshot();

  ShardedVisitedSet seen(options.exact_keys, options.sleep_sets);
  WorkStealingFrontier<WorkItem> frontier(options.threads);
  std::atomic<std::uint64_t> num_configs{0};
  std::atomic<bool> truncated{false};
  std::atomic<bool> abort{false};

  ExploreResult result;

  // Shared result payloads, guarded by one mutex: touched once per distinct
  // terminal, so contention is negligible.
  std::mutex result_mu;
  std::exception_ptr first_error;

  std::vector<WorkerCtx> ctxs(options.threads);
  for (WorkerCtx& c : ctxs) c.recorder = Recorder(options);

  struct Admit {
    bool fresh = false;
    bool dropped = false;  // over the max_configs cap; transition uncounted
    Fingerprint fp;
  };

  // Admits a newly fired successor: inserts it into the seen set and, when
  // admitted under max_configs, collects its violations/faults and enqueues
  // it. On a revisit in sleep-sets mode, applies the revisit rule: narrow
  // the stored mask and enqueue a redo item for the awakened transitions.
  // A withdrawn over-cap successor reports fresh=false, which can only
  // cause extra full expansions in the proviso.
  auto admit = [&](Configuration&& succ, std::uint64_t succ_sleep, unsigned widx) -> Admit {
    WorkerCtx& ctx = ctxs[widx];
    Admit a;
    {
      // Per-thread phase timer: the worker's own Canonicalize track (self
      // time; suspends its enclosing Expansion scope).
      telemetry::ScopedPhase phase(telemetry::Phase::Canonicalize);
      a.fp = succ.canonical_fingerprint();
    }
    if (!seen.insert(succ, a.fp, succ_sleep)) {
      if (options.sleep_sets) {
        const auto n = seen.narrow_sleep(a.fp, succ_sleep);
        if (n.wake != 0) {
          ctx.counters.sleep_reexplorations += 1;
          frontier.push(widx, WorkItem{std::move(succ), a.fp, n.remaining, n.wake});
        }
      }
      return a;
    }
    const std::uint64_t n = num_configs.fetch_add(1) + 1;
    if (n > options.max_configs) {
      num_configs.fetch_sub(1);
      seen.erase(succ, a.fp);
      truncated.store(true);
      a.dropped = true;
      return a;
    }
    for (std::uint32_t v : succ.violations) ctx.violations.insert(v);
    for (const auto& f : succ.faults) ctx.faults.insert(f);
    if (options.record_graph) ctx.node_fps.push_back(a.fp);
    frontier.push(widx, WorkItem{std::move(succ), a.fp, succ_sleep, 0});
    a.fresh = true;
    return a;
  };

  auto expand = [&](WorkItem& item, unsigned widx) {
    WorkerCtx& ctx = ctxs[widx];
    const Configuration& cfg = item.cfg;
    // A sleep revisit redo fires exactly the awakened transitions: the
    // first visit already did pair recording and the stubborn choice.
    Expansion e = expand_state(cfg, static_info,
                               item.redo != 0 ? Reduction::Full : options.reduction, ctx.counters);
    std::vector<Pid>& expansion = e.fire;

    if (e.enabled.empty()) {
      // Terminal (completion or deadlock). A redo item of a terminal has
      // nothing to re-fire, and the terminal was recorded on first visit.
      if (item.redo != 0) return;
      const bool deadlock = cfg.num_live() > 0;
      ctx.recorder.terminal_lifetimes(cfg);
      if (options.record_graph) {
        ctx.terminal_fps.push_back(item.fp);
        if (deadlock) ctx.deadlock_fps.push_back(item.fp);
      }
      std::string key = terminal_key(cfg);
      const std::scoped_lock lock(result_mu);
      result.deadlock_found = result.deadlock_found || deadlock;
      result.terminals.emplace(std::move(key), TerminalInfo{cfg, deadlock});
      return;
    }

    if (item.redo != 0) {
      std::erase_if(expansion, [&](Pid p) {
        return p >= kMaxSleepPid || ((item.redo >> p) & 1) == 0;
      });
      if (expansion.empty()) return;
    } else {
      ctx.recorder.pairs(e.infos);
      if (options.sleep_sets) {
        std::erase_if(expansion, [&](Pid p) {
          const bool sleeping = p < kMaxSleepPid && ((item.sleep >> p) & 1) != 0;
          if (sleeping) ctx.counters.sleep_suppressed_transitions += 1;
          return sleeping;
        });
        if (expansion.empty()) return;  // fully covered elsewhere
      }
    }

    // Successor sleep set of the `idx`-th fired member of `expansion`:
    // surviving (independent) entries of this item's sleep plus the
    // earlier-fired siblings that are independent of the fired action.
    auto succ_sleep_for = [&](const ActionInfo& fired, std::size_t idx) -> std::uint64_t {
      std::uint64_t out = 0;
      auto keep_if_independent = [&](Pid t) {
        if (t >= kMaxSleepPid) {
          // The pid does not fit the 64-bit sleep mask, so this sibling can
          // never be put to sleep. Sound (sleep sets only prune) but the
          // reduction silently degrades — surface it once, count always.
          ctx.counters.sleep_pids_capped += 1;
          warn_once("sleep-pids-capped",
                    "process ids >= " + std::to_string(kMaxSleepPid) +
                        " exceed the sleep-set pid mask; sleep-set reduction is "
                        "disabled for them (exploration stays sound but prunes "
                        "less; see the sleep.pids_capped counter)");
          return;
        }
        const ActionInfo* other = e.find(t);
        if (other == nullptr) return;
        if (!actions_conflict(fired, *other)) out |= std::uint64_t{1} << t;
      };
      for (Pid t = 0; t < kMaxSleepPid; ++t) {
        if (((item.sleep >> t) & 1) != 0) keep_if_independent(t);
      }
      for (std::size_t i = 0; i < idx; ++i) keep_if_independent(expansion[i]);
      return out;
    };

    // Fires one transition; returns true when its successor was newly
    // inserted (feeds the insertion proviso). Indices past expansion.size()
    // are proviso supplements and fire with an empty sleep set (the
    // sequential engine likewise clears sleep on a full re-expansion).
    std::size_t fire_seq = 0;
    auto fire = [&](Pid pid) -> bool {
      const std::size_t idx = fire_seq++;
      const ActionInfo& fired = e.info(pid);
      std::uint64_t succ_sleep = 0;
      if (options.sleep_sets && idx < expansion.size()) succ_sleep = succ_sleep_for(fired, idx);
      ctx.transitions += 1;
      Configuration succ = core_step(cfg, pid, static_info, options.coarsen, ctx.recorder,
                                     ctx.counters, &fired);
      const Admit a = admit(std::move(succ), succ_sleep, widx);
      if (a.dropped) {
        // As in the sequential engine, the transition whose successor is
        // dropped is uncounted (keeps graph.edges.size() == num_transitions
        // through truncation) and accounted separately.
        ctx.transitions -= 1;
        ctx.counters.truncated_transitions += 1;
        return false;
      }
      if (options.record_graph) {
        ctx.edges.push_back(EdgeFp{item.fp, a.fp, fired.stmt_id, fired.kind});
      }
      return a.fresh;
    };

    if (fire_with_insertion_proviso(e.enabled, expansion, e.reduced, !truncated.load(), fire)) {
      ctx.counters.proviso_full_expansions += 1;
    }
  };

  // Each worker's track tid, for the post-join per-worker attribution.
  std::vector<std::uint32_t> worker_tids(options.threads, 0);
  // Per-worker peak of the live-structure byte gauge, max-merged after the
  // join (each entry is written by exactly one worker).
  std::vector<std::uint64_t> worker_peak_bytes(options.threads, 0);

  // Refreshes the live gauges (heartbeat + sampler inputs) from this
  // worker's view. Cheap when nobody listens; the visited-set aggregate
  // walk (64 shard locks) runs only every 1024 items per worker.
  auto live_tick = [&](std::uint64_t items_seen) {
    auto& tel = telemetry::Telemetry::global();
    if (!tel.live_enabled()) return;
    const std::uint64_t n = num_configs.load(std::memory_order_relaxed);
    tel.set_live(telemetry::Gauge::Configs, n);
    tel.set_live(telemetry::Gauge::VisitedEntries, n);
    tel.set_live(telemetry::Gauge::Frontier, frontier.size());
    tel.set_live(telemetry::Gauge::FrontierBytes, sem::cowstats::live_bytes());
    if (items_seen % 1024 == 0) {
      tel.set_live(telemetry::Gauge::VisitedBytes, seen.memory_bytes());
    }
    tel.heartbeat();
  };

  auto worker = [&](unsigned index) {
    telemetry::ThreadRegistration track("worker" + std::to_string(index));
    worker_tids[index] = track.tid();
    const WorkerCtx& ctx = ctxs[index];
    std::uint64_t items_seen = 0;
    try {
      while (auto item = frontier.pop(index)) {
        if (!abort.load() && !truncated.load()) {
          const std::uint64_t fired_before = ctx.transitions;
          {
            telemetry::ScopedPhase phase(telemetry::Phase::Expansion);
            expand(*item, index);
          }
          items_seen += 1;
          const std::uint64_t live_bytes = sem::cowstats::live_bytes();
          if (live_bytes > worker_peak_bytes[index]) worker_peak_bytes[index] = live_bytes;
          auto& tel = telemetry::Telemetry::global();
          if (tel.live_enabled()) {
            if (ctx.transitions > fired_before) {
              tel.add_live(telemetry::Gauge::Transitions, ctx.transitions - fired_before);
            }
            live_tick(items_seen);
          }
        }
        frontier.done(index);
      }
    } catch (...) {
      {
        const std::scoped_lock lock(result_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true);
      frontier.done(index);
      frontier.abort();
    }
  };

  // Seed the frontier with the initial configuration.
  Fingerprint init_fp;
  {
    Configuration init = Configuration::initial(program);
    init_fp = init.canonical_fingerprint();
    seen.insert(init, init_fp, 0);
    num_configs.store(1);
    for (std::uint32_t v : init.violations) ctxs[0].violations.insert(v);
    for (const auto& f : init.faults) ctxs[0].faults.insert(f);
    frontier.push(0, WorkItem{std::move(init), init_fp, 0, 0});
  }

  {
    telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
    std::vector<std::thread> threads;
    threads.reserve(options.threads);
    for (unsigned i = 0; i < options.threads; ++i) threads.emplace_back(worker, i);
    for (std::thread& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Deterministic merge: counter sums and set unions do not depend on
  // which worker did what.
  result.num_configs = num_configs.load();
  result.truncated = truncated.load();
  ExploreCounters counters;
  FrontierCounters frontier_total;
  std::uint64_t busy_min_ns = 0;
  std::uint64_t busy_max_ns = 0;
  std::uint64_t busy_sum_ns = 0;
  for (unsigned i = 0; i < options.threads; ++i) {
    const WorkerCtx& ctx = ctxs[i];
    counters += ctx.counters;
    result.num_transitions += ctx.transitions;
    result.violations.insert(ctx.violations.begin(), ctx.violations.end());
    result.faults.insert(ctx.faults.begin(), ctx.faults.end());
    const FrontierCounters& fc = frontier.counters(i);
    frontier_total.steals += fc.steals;
    frontier_total.stolen_items += fc.stolen_items;
    frontier_total.steal_misses += fc.steal_misses;
    frontier_total.contention += fc.contention;
    ctx.recorder.merge_into(result);
    if (metrics) {
      // Per-worker attribution from the workers' own telemetry tracks
      // (self times: Stubborn/Canonicalize scopes suspend the enclosing
      // Expansion scope, so the three sum to the worker's busy time).
      auto& tel = telemetry::Telemetry::global();
      const std::uint64_t expansion_ns =
          tel.track_phase_ns(worker_tids[i], telemetry::Phase::Expansion);
      const std::uint64_t stubborn_ns =
          tel.track_phase_ns(worker_tids[i], telemetry::Phase::Stubborn);
      const std::uint64_t canonicalize_ns =
          tel.track_phase_ns(worker_tids[i], telemetry::Phase::Canonicalize);
      const std::string prefix = "worker" + std::to_string(i);
      result.stats.add_time_ns(prefix + ".expansion", expansion_ns);
      result.stats.add_time_ns(prefix + ".stubborn", stubborn_ns);
      result.stats.add_time_ns(prefix + ".canonicalize", canonicalize_ns);
      const std::uint64_t busy_ns = expansion_ns + stubborn_ns + canonicalize_ns;
      busy_min_ns = i == 0 ? busy_ns : std::min(busy_min_ns, busy_ns);
      busy_max_ns = std::max(busy_max_ns, busy_ns);
      busy_sum_ns += busy_ns;
    }
  }
  if (metrics) {
    // Aggregates over the nondeterministic workerN.* keys: min/max expose
    // imbalance, sum is total busy time (compare against wall clock for
    // effective parallelism). Stable key names — golden tests pin them.
    result.stats.add_time_ns("workers.min", busy_min_ns);
    result.stats.add_time_ns("workers.max", busy_max_ns);
    result.stats.add_time_ns("workers.sum", busy_sum_ns);
  }
  // The steal counters are always present under threads > 1 (even at
  // zero): they are the engine's health signals (see docs/PARALLEL.md).
  result.stats.set("steals", frontier_total.steals);
  result.stats.set("stolen_items", frontier_total.stolen_items);
  result.stats.set("steal_misses", frontier_total.steal_misses);
  result.stats.set("frontier_contention", frontier_total.contention);
  result.stats.set_gauge("threads", options.threads);

  if (options.record_graph) {
    // Scheduling-independent node ids: the initial state is node 0, every
    // other admitted state gets its rank in fingerprint order. Edges and
    // terminal lists are translated and sorted, so two runs that admit the
    // same state set produce byte-identical graphs (under Full reduction
    // they always do; a reduced run's edge set can vary with proviso
    // races, its node set cannot).
    std::vector<Fingerprint> node_fps;
    for (const WorkerCtx& ctx : ctxs) {
      node_fps.insert(node_fps.end(), ctx.node_fps.begin(), ctx.node_fps.end());
    }
    std::sort(node_fps.begin(), node_fps.end());
    std::unordered_map<Fingerprint, std::uint32_t, support::FingerprintHash> id_of;
    id_of.reserve(node_fps.size() + 1);
    id_of.emplace(init_fp, 0);
    for (std::size_t i = 0; i < node_fps.size(); ++i) {
      id_of.emplace(node_fps[i], static_cast<std::uint32_t>(i + 1));
    }
    for (const WorkerCtx& ctx : ctxs) {
      for (const EdgeFp& e : ctx.edges) {
        result.graph.edges.push_back(
            StateGraph::Edge{id_of.at(e.from), id_of.at(e.to), e.stmt, e.kind});
      }
      for (const Fingerprint& fp : ctx.terminal_fps) {
        result.graph.terminal_nodes.push_back(id_of.at(fp));
      }
      for (const Fingerprint& fp : ctx.deadlock_fps) {
        result.graph.deadlock_nodes.push_back(id_of.at(fp));
      }
    }
    std::sort(result.graph.edges.begin(), result.graph.edges.end());
    std::sort(result.graph.terminal_nodes.begin(), result.graph.terminal_nodes.end());
    std::sort(result.graph.deadlock_nodes.begin(), result.graph.deadlock_nodes.end());
  }

  finish_explore(result, counters,
                 {seen.memory_bytes(), seen.size(), seen.collisions(),
                  *std::max_element(worker_peak_bytes.begin(), worker_peak_bytes.end())},
                 cow0);
  return result;
}

}  // namespace copar::explore
