// copar-cli — command-line driver for the framework.
//
//   copar-cli run <file.cop>                 run all interleavings, print outcomes
//   copar-cli explore <file.cop> [--stubborn] [--coarsen] [--sleep]
//                                [--max-configs N] [--threads N] [--exact-keys]
//                                            state-space statistics; exits 3
//                                            if the exploration was truncated.
//                                            --threads N>1 uses the work-
//                                            stealing engine; --exact-keys
//                                            keeps full canonical keys (and
//                                            counts fingerprint collisions)
//   copar-cli analyze <file.cop> [--engine explore|tmod]
//                                            §5 analyses + §7 applications report
//                                            (--engine tmod: the thread-modular
//                                            rely/guarantee interference report
//                                            instead — no interleaving
//                                            enumeration, terminates on any
//                                            program)
//   copar-cli abstract <file.cop> [--clan]   abstract exploration summary
//   copar-cli witness <file.cop> [--deadlock | --violation L | --fault L]
//                                            print a schedule exhibiting the fact
//   copar-cli parallelize <file.cop> --labels s1,s2,s3,s4
//                                            schedule the labeled statements into
//                                            parallel chains, print the rewritten
//                                            program, and verify equivalence
//   copar-cli graph <file.cop> [--stubborn] [--coarsen]
//                                            Graphviz dot of the configuration graph
//   copar-cli check <file.cop> [--sarif] [--disable c1,c2] [--no-witness]
//                              [--tier auto|static|explore|tmod] [--pair-budget N]
//                              [--max-configs N]
//                                            static diagnostics (races, faults,
//                                            uninitialized reads, dead code...);
//                                            exits 1 on error-severity findings
//   copar-cli check --list-checks            catalog of check codes
//   copar-cli disasm <file.cop>              lowered atomic-action code
//   copar-cli fmt <file.cop>                 pretty-print the parsed program
//   copar-cli metrics-dump <file.cop> [explore options] [--format json|prom|text]
//                                            run an exploration and print the
//                                            MetricsSnapshot (the copar-serve
//                                            metrics surface) instead of the
//                                            report
//
// Global observability flags (any command):
//   --json               machine-readable report: one JSON document on stdout
//                        (counters, per-phase milliseconds, memory gauges,
//                        terminals, violations) for run/explore/analyze/abstract
//   --trace <out.json>   record a Chrome trace_event timeline of the engine
//                        phases (one track per worker thread); open in
//                        chrome://tracing or Perfetto
//   --progress [secs]    stderr heartbeat every `secs` (default 2) seconds
//                        with configs/sec and frontier depth
//   --sample <ms>        background sampler: snapshot the live gauges every
//                        `ms` milliseconds into the report's "timeline" (and
//                        counter tracks in the trace)
//   --metrics-out <f>    after the run, write the metrics snapshot to `f`
//                        (Prometheus text when `f` ends in .prom, JSON
//                        otherwise)
//
// Exit codes: 0 success, 1 error (or error-severity findings from check),
// 2 usage, 3 truncated exploration, 4 out of memory.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absem/absexplore.h"
#include "src/absem/tmod.h"
#include "src/analysis/anomaly.h"
#include "src/analysis/common.h"
#include "src/analysis/deadstore.h"
#include "src/analysis/depend.h"
#include "src/analysis/lifetime.h"
#include "src/analysis/lockset.h"
#include "src/analysis/mhp.h"
#include "src/analysis/racecand.h"
#include "src/analysis/sideeffect.h"
#include "src/analysis/staticmhp.h"
#include "src/apps/parallelize.h"
#include "src/check/check.h"
#include "src/apps/placement.h"
#include "src/apps/transform.h"
#include "src/explore/parexplore.h"
#include "src/explore/report.h"
#include "src/explore/witness.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/sem/program.h"
#include "src/support/json.h"
#include "src/support/metrics.h"
#include "src/support/telemetry.h"

namespace {

int usage() {
  std::cerr << "usage: copar-cli "
               "<run|explore|analyze|abstract|check|witness|parallelize|graph|disasm|fmt"
               "|metrics-dump> <file.cop> [options]\n"
               "global options: --json  --trace <out.json>  --progress [seconds]  "
               "--sample <ms>  --metrics-out <file>\n"
               "explore options: --stubborn --coarsen --sleep --max-configs N "
               "--threads N --exact-keys\n"
               "analyze options: --engine explore|tmod\n"
               "check options:   --sarif --disable <c1,c2,...> --no-witness "
               "--max-configs N --tier auto|static|explore|tmod --pair-budget N  "
               "(or: check --list-checks)\n"
               "metrics-dump options: explore options plus --format json|prom|text\n";
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw copar::Error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool has_flag(const std::vector<std::string>& args, std::string_view flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

std::string flag_value(const std::vector<std::string>& args, std::string_view flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return {};
}

/// Observability switches, stripped from the arg list before command
/// dispatch so every command accepts them uniformly.
struct GlobalOpts {
  bool json = false;
  std::string trace_path;
  bool progress = false;
  double progress_interval_s = 2.0;
  double sample_ms = 0;  // 0: sampler off
  std::string metrics_out;
  bool missing_trace_path = false;  // `--trace` given as the last argument
  bool bad_sample = false;          // `--sample` without a positive number
  bool missing_metrics_out = false;
};

GlobalOpts extract_global_opts(std::vector<std::string>& args) {
  GlobalOpts g;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      g.json = true;
    } else if (a == "--trace") {
      if (i + 1 < args.size()) {
        g.trace_path = args[++i];
      } else {
        g.missing_trace_path = true;
      }
    } else if (a == "--progress") {
      g.progress = true;
      // Optional numeric interval right after the flag.
      if (i + 1 < args.size()) {
        char* end = nullptr;
        const double v = std::strtod(args[i + 1].c_str(), &end);
        if (end != nullptr && *end == '\0' && v > 0) {
          g.progress_interval_s = v;
          ++i;
        }
      }
    } else if (a == "--sample") {
      g.bad_sample = true;
      if (i + 1 < args.size()) {
        char* end = nullptr;
        const double v = std::strtod(args[i + 1].c_str(), &end);
        if (end != nullptr && *end == '\0' && v > 0) {
          g.sample_ms = v;
          g.bad_sample = false;
          ++i;
        }
      }
    } else if (a == "--metrics-out") {
      if (i + 1 < args.size()) {
        g.metrics_out = args[++i];
      } else {
        g.missing_metrics_out = true;
      }
    } else {
      rest.push_back(a);
    }
  }
  args = std::move(rest);
  return g;
}

void apply_global_opts(const GlobalOpts& g) {
  auto& tel = copar::telemetry::Telemetry::global();
  if (g.json || !g.trace_path.empty() || !g.metrics_out.empty()) tel.enable_metrics();
  if (!g.trace_path.empty()) tel.enable_trace();
  if (g.progress) tel.enable_progress(g.progress_interval_s);
  if (g.sample_ms > 0) tel.start_sampler(g.sample_ms);
}

/// Stops the sampler (taking a final end-of-run sample) so reports and
/// trace flushes see the completed timeline. Safe to call repeatedly.
void finish_sampling() { copar::telemetry::Telemetry::global().stop_sampler(); }

int cmd_run(const copar::CompiledProgram& p, const std::string& path, const GlobalOpts& g) {
  using namespace copar;
  const explore::ExploreOptions opts;
  const auto r = explore::explore(*p.lowered, opts);
  finish_sampling();
  const int rc = r.deadlock_found || !r.violations.empty() || !r.faults.empty() ? 1 : 0;
  if (g.json) {
    support::JsonWriter w(std::cout);
    explore::write_json_report(w, "run", path, r, opts, p.lowered.get());
    std::cout << '\n';
    return rc;
  }
  std::cout << "configurations: " << r.num_configs << ", transitions: " << r.num_transitions
            << '\n';
  std::cout << "terminal configurations: " << r.terminals.size()
            << (r.deadlock_found ? " (deadlock reachable!)" : "") << '\n';
  if (!r.violations.empty()) {
    std::cout << "assertion violations:";
    for (auto v : r.violations) std::cout << ' ' << analysis::describe_stmt(*p.lowered, v);
    std::cout << '\n';
  }
  if (!r.faults.empty()) {
    std::cout << "runtime faults:";
    for (const auto& [stmt, kind] : r.faults) {
      std::cout << ' ' << analysis::describe_stmt(*p.lowered, stmt) << '('
                << sem::fault_name(static_cast<sem::Fault>(kind)) << ')';
    }
    std::cout << '\n';
  }
  std::cout << "global outcomes per terminal:\n";
  int idx = 0;
  for (const auto& [key, t] : r.terminals) {
    std::cout << "  #" << ++idx << (t.deadlock ? " [deadlock]" : "") << ':';
    for (const sem::GlobalSlot& gs : p.lowered->globals()) {
      if (gs.fun != nullptr) continue;
      const auto v = t.config.store.read(0, gs.slot);
      std::cout << ' ' << p.lowered->module().interner().spelling(gs.name) << '='
                << v.to_string();
    }
    std::cout << '\n';
  }
  return rc;
}

/// Parses the shared exploration option set (`explore` and `metrics-dump`
/// accept the same flags). Returns 0 on success, the exit code otherwise.
int parse_explore_opts(const std::vector<std::string>& args,
                       copar::explore::ExploreOptions& opts) {
  using namespace copar;
  if (has_flag(args, "--stubborn")) opts.reduction = explore::Reduction::Stubborn;
  if (has_flag(args, "--coarsen")) opts.coarsen = true;
  if (has_flag(args, "--sleep")) opts.sleep_sets = true;
  if (has_flag(args, "--exact-keys")) opts.exact_keys = true;
  if (has_flag(args, "--max-configs") && flag_value(args, "--max-configs").empty()) {
    std::cerr << "error: --max-configs expects a positive integer\n";
    return 2;
  }
  if (const std::string v = flag_value(args, "--max-configs"); !v.empty()) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n == 0) {
      std::cerr << "error: --max-configs expects a positive integer, got '" << v << "'\n";
      return 2;
    }
    opts.max_configs = n;
  }
  if (has_flag(args, "--threads") && flag_value(args, "--threads").empty()) {
    std::cerr << "error: --threads expects a positive integer\n";
    return 2;
  }
  if (const std::string v = flag_value(args, "--threads"); !v.empty()) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n == 0 || n > 1024) {
      std::cerr << "error: --threads expects a positive integer, got '" << v << "'\n";
      return 2;
    }
    opts.threads = static_cast<unsigned>(n);
  }
  if (const auto d = explore::parallel_unsupported(opts)) {
    std::cerr << "error (" << d->code << "): " << d->message << '\n';
    return 2;
  }
  return 0;
}

int cmd_explore(const copar::CompiledProgram& p, const std::string& path,
                const std::vector<std::string>& args, const GlobalOpts& g) {
  using namespace copar;
  explore::ExploreOptions opts;
  if (const int rc = parse_explore_opts(args, opts); rc != 0) return rc;
  const auto r = explore::explore(*p.lowered, opts);
  finish_sampling();
  if (g.json) {
    support::JsonWriter w(std::cout);
    explore::write_json_report(w, "explore", path, r, opts);
    std::cout << '\n';
  } else {
    std::cout << r.stats.to_string();
  }
  if (r.truncated) {
    std::cerr << "error: exploration truncated at " << opts.max_configs
              << " configurations (counters are lower bounds; raise --max-configs)\n";
    return 3;
  }
  return 0;
}

/// `copar-cli analyze --engine tmod` — the thread-modular rely/guarantee
/// interference report. No interleaving enumeration at all: the engine
/// terminates on any program, including ones the explorers can only
/// truncate, and its report is a sound over-approximation of every
/// interleaving.
int cmd_analyze_tmod(const copar::CompiledProgram& p, const std::string& path,
                     const GlobalOpts& g) {
  using namespace copar;
  const sem::LoweredProgram& prog = *p.lowered;

  // Static lockset / MHP facts prune interference and race pairs.
  const explore::StaticInfo info(prog);
  const analysis::StaticParallelism par(prog, info);
  const analysis::LockSets locks(prog, info);
  const analysis::Mhp mhp = par.stmt_mhp();
  const auto r = absem::tmod_analyze<absdom::Interval>(
      prog, analysis::tmod_options(par, locks, mhp));
  finish_sampling();

  if (g.json) {
    support::JsonWriter w(std::cout);
    w.begin_object();
    w.key("tool");
    w.value("copar");
    w.key("command");
    w.value("analyze");
    w.key("engine");
    w.value("tmod");
    w.key("file");
    w.value(path);
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : r.stats.all()) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("phases_ms");
    telemetry::write_phases_ms(w);
    w.key("phase_counts");
    telemetry::write_phase_counts(w);
    w.key("memory");
    w.begin_object();
    w.key("peak_rss_bytes");
    w.value(telemetry::peak_rss_bytes());
    w.end_object();
    w.key("result");
    w.begin_object();
    w.key("threads");
    w.value(static_cast<std::uint64_t>(r.threads));
    w.key("rounds");
    w.value(static_cast<std::uint64_t>(r.rounds));
    w.key("truncated");
    w.value(r.truncated);
    w.key("interference_facts");
    w.value(r.interference_facts);
    w.key("races");
    w.begin_object();
    w.key("pairs_total");
    w.value(r.races.pairs_total);
    w.key("pruned_mhp");
    w.value(r.races.pruned_mhp);
    w.key("pruned_lockset");
    w.value(r.races.pruned_lockset);
    w.key("count");
    w.value(static_cast<std::uint64_t>(r.races.races.size()));
    w.end_object();
    w.key("may_fail_asserts");
    w.begin_array();
    for (std::uint32_t s : r.may_fail_asserts) w.value(static_cast<std::uint64_t>(s));
    w.end_array();
    w.key("may_faults");
    w.value(static_cast<std::uint64_t>(r.may_faults.size()));
    w.key("uninit_reads");
    w.value(static_cast<std::uint64_t>(r.uninit_reads.size()));
    w.end_object();
    w.end_object();
    std::cout << '\n';
    return 0;
  }

  std::cout << "== thread-modular interference analysis ==\n";
  std::cout << "threads: " << r.threads << ", rounds: " << r.rounds
            << (r.truncated ? " (round cap hit — alarms incomplete)" : " (converged)")
            << '\n';
  std::cout << "interference facts: " << r.interference_facts << '\n';
  for (const auto& [root, rely] : r.relies) {
    std::cout << "thread p" << root << " '" << prog.procs()[root].name << "':\n";
    for (const auto& [loc, v] : rely.entries()) {
      std::cout << "  rely      " << analysis::describe_loc(prog, loc) << " = "
                << v.to_string() << '\n';
    }
    const auto git = r.guarantees.find(root);
    if (git != r.guarantees.end()) {
      for (const auto& [loc, v] : git->second.entries()) {
        std::cout << "  guarantee " << analysis::describe_loc(prog, loc) << " = "
                  << v.to_string() << '\n';
      }
    }
  }
  std::cout << "race candidates: " << r.races.races.size() << " (of "
            << r.races.pairs_total << " pairs: " << r.races.pruned_mhp << " mhp-pruned, "
            << r.races.pruned_lockset << " lockset-pruned)\n";
  for (const absem::TmodRace& c : r.races.races) {
    std::cout << "  " << (c.write_write ? "write/write " : "")
              << (c.write_read ? "write/read " : "") << "race between "
              << analysis::describe_stmt(prog, c.stmt1) << " and "
              << analysis::describe_stmt(prog, c.stmt2) << '\n';
  }
  if (!r.may_fail_asserts.empty()) {
    std::cout << "asserts that may fail:";
    for (auto s : r.may_fail_asserts) std::cout << ' ' << analysis::describe_stmt(prog, s);
    std::cout << '\n';
  }
  if (!r.may_faults.empty()) {
    std::cout << "may-faults:";
    for (const auto& [stmt, expr, fault] : r.may_faults) {
      std::cout << ' ' << analysis::describe_stmt(prog, stmt) << '('
                << sem::fault_name(static_cast<sem::Fault>(fault)) << ')';
    }
    std::cout << '\n';
  }
  if (!r.uninit_reads.empty()) {
    std::cout << "uninitialized reads: " << r.uninit_reads.size() << '\n';
  }
  return 0;
}

int cmd_analyze(const copar::CompiledProgram& p, const std::string& path,
                const std::vector<std::string>& args, const GlobalOpts& g) {
  using namespace copar;
  std::string engine_name = flag_value(args, "--engine");
  bool engine_given = has_flag(args, "--engine");
  for (const std::string& a : args) {
    if (a.rfind("--engine=", 0) == 0) {
      engine_given = true;
      if (engine_name.empty()) engine_name = a.substr(9);
    }
  }
  if (engine_given && engine_name.empty()) {
    std::cerr << "error: --engine requires a value (explore|tmod)\n";
    return 2;
  }
  if (engine_name == "tmod") return cmd_analyze_tmod(p, path, g);
  if (!engine_name.empty() && engine_name != "explore") {
    std::cerr << "error: --engine expects explore or tmod, got '" << engine_name << "'\n";
    return 2;
  }
  explore::ExploreOptions opts;
  opts.record_pairs = true;
  opts.record_accesses = true;
  opts.record_lifetimes = true;
  const auto concrete = explore::explore(*p.lowered, opts);

  absem::AbsExplorer<absdom::FlatInt> engine(*p.lowered, {});
  const auto abs = engine.run();
  finish_sampling();

  telemetry::ScopedPhase phase_analysis(telemetry::Phase::Analysis);
  const auto effects = analysis::side_effects_from(*p.lowered, abs);
  const auto mhp = analysis::mhp_from(concrete);
  const auto deps = analysis::dependences_from(concrete);
  const auto anomalies = analysis::anomalies_from(concrete);
  const analysis::DeadStores dead = analysis::find_dead_stores(*p.lowered);
  const auto lifetimes = analysis::lifetimes_from(concrete);

  if (g.json) {
    support::JsonWriter w(std::cout);
    w.begin_object();
    w.key("tool");
    w.value("copar");
    w.key("command");
    w.value("analyze");
    w.key("file");
    w.value(path);
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : concrete.stats.all()) {
      w.key(name);
      w.value(value);
    }
    for (const auto& [name, value] : abs.stats.all()) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : concrete.stats.gauges()) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("phases_ms");
    telemetry::write_phases_ms(w);
    w.key("phase_counts");
    telemetry::write_phase_counts(w);
    w.key("memory");
    w.begin_object();
    w.key("peak_rss_bytes");
    w.value(telemetry::peak_rss_bytes());
    w.end_object();
    w.key("analyses");
    w.begin_object();
    w.key("mhp_pairs");
    w.value(static_cast<std::uint64_t>(mhp.pairs.size()));
    w.key("dependences");
    w.value(static_cast<std::uint64_t>(deps.deps.size()));
    w.key("anomalies");
    w.value(static_cast<std::uint64_t>(anomalies.all.size()));
    w.key("dead_stores");
    w.value(static_cast<std::uint64_t>(dead.stores.size()));
    w.key("lifetime_sites");
    w.value(static_cast<std::uint64_t>(lifetimes.sites.size()));
    w.end_object();
    w.key("result");
    w.begin_object();
    w.key("configs");
    w.value(concrete.num_configs);
    w.key("transitions");
    w.value(concrete.num_transitions);
    w.key("terminals");
    w.value(static_cast<std::uint64_t>(concrete.terminals.size()));
    w.key("deadlock");
    w.value(concrete.deadlock_found);
    w.key("truncated");
    w.value(concrete.truncated);
    w.key("violations");
    w.begin_array();
    for (std::uint32_t v : concrete.violations) w.value(static_cast<std::uint64_t>(v));
    w.end_array();
    w.end_object();
    w.end_object();
    std::cout << '\n';
    return 0;
  }

  std::cout << "== side effects (§5.1) ==\n" << effects.report(*p.lowered);
  std::cout << "\n== may-happen-in-parallel ==\n" << mhp.report(*p.lowered);
  std::cout << "\n== dependences (§5.2) ==\n" << deps.report(*p.lowered);
  std::cout << "\n== access anomalies ==\n" << anomalies.report(*p.lowered);
  if (!dead.stores.empty()) {
    std::cout << "\n== dead stores (parallel-safe) ==\n" << dead.report(*p.lowered);
  }
  if (!lifetimes.sites.empty()) {
    std::cout << "\n== lifetimes (§5.3) ==\n" << lifetimes.report(*p.lowered);
    std::cout << "\n== placement (§7) ==\n"
              << apps::place_objects(lifetimes).report(*p.lowered);
  }
  return 0;
}

int cmd_abstract(const copar::CompiledProgram& p, const std::string& path,
                 const std::vector<std::string>& args, const GlobalOpts& g) {
  using namespace copar;
  absem::AbsOptions opts;
  if (has_flag(args, "--clan")) opts.folding = absem::Folding::Clan;
  absem::AbsExplorer<absdom::FlatInt> engine(*p.lowered, opts);
  const auto r = engine.run();
  finish_sampling();
  if (g.json) {
    support::JsonWriter w(std::cout);
    w.begin_object();
    w.key("tool");
    w.value("copar");
    w.key("command");
    w.value("abstract");
    w.key("file");
    w.value(path);
    w.key("options");
    w.begin_object();
    w.key("folding");
    w.value(opts.folding == absem::Folding::Clan ? "clan" : "tree");
    w.key("max_states");
    w.value(opts.max_states);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : r.stats.all()) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : r.stats.gauges()) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("phases_ms");
    telemetry::write_phases_ms(w);
    w.key("phase_counts");
    telemetry::write_phase_counts(w);
    w.key("memory");
    w.begin_object();
    w.key("peak_rss_bytes");
    w.value(telemetry::peak_rss_bytes());
    w.end_object();
    w.key("result");
    w.begin_object();
    w.key("abs_states");
    w.value(r.num_states);
    w.key("mhp_pairs");
    w.value(static_cast<std::uint64_t>(r.mhp.size()));
    w.key("truncated");
    w.value(r.truncated);
    w.key("may_fail_asserts");
    w.begin_array();
    for (std::uint32_t s : r.may_fail_asserts) w.value(static_cast<std::uint64_t>(s));
    w.end_array();
    w.end_object();
    w.end_object();
    std::cout << '\n';
    return 0;
  }
  std::cout << "abstract states: " << r.num_states << '\n';
  std::cout << "MHP pairs: " << r.mhp.size() << '\n';
  if (!r.may_fail_asserts.empty()) {
    std::cout << "asserts that may fail:";
    for (auto s : r.may_fail_asserts) std::cout << ' ' << analysis::describe_stmt(*p.lowered, s);
    std::cout << '\n';
  }
  return 0;
}

int cmd_list_checks() {
  using namespace copar;
  for (const RuleInfo& r : check::catalog()) {
    std::cout << r.id << " (" << severity_name(r.default_severity) << "): " << r.summary
              << '\n';
  }
  return 0;
}

/// `copar-cli check` — the unified static diagnostics engine. Runs the whole
/// battery (src/check) and renders findings as human text, JSON, or SARIF.
/// Unlike the other commands it owns its front end, so syntax errors become
/// ordinary findings instead of a bare exception message.
int cmd_check(const std::string& path, const std::string& source,
              const std::vector<std::string>& args, const GlobalOpts& g) {
  using namespace copar;
  const bool sarif = has_flag(args, "--sarif");
  check::CheckOptions copts;
  if (has_flag(args, "--no-witness")) copts.witnesses = false;
  // Accept both `--flag value` and `--flag=value` (CI scripts use the
  // latter for the tier switches).
  auto flag_eq_or_space = [&](std::string_view flag) -> std::string {
    const std::string prefix = std::string(flag) + "=";
    for (const std::string& a : args) {
      if (a.size() > prefix.size() && a.compare(0, prefix.size(), prefix) == 0) {
        return a.substr(prefix.size());
      }
    }
    return flag_value(args, flag);
  };
  auto parse_positive = [&](std::string_view flag, std::uint64_t* out) -> bool {
    const std::string v = flag_eq_or_space(flag);
    if (v.empty()) {
      if (has_flag(args, flag)) {
        std::cerr << "error: " << flag << " requires a value\n";
        return false;
      }
      return true;
    }
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n == 0) {
      std::cerr << "error: " << flag << " expects a positive integer, got '" << v << "'\n";
      return false;
    }
    *out = n;
    return true;
  };
  if (!parse_positive("--max-configs", &copts.max_configs)) return 2;
  if (!parse_positive("--pair-budget", &copts.pair_budget)) return 2;
  if (const std::string v = flag_eq_or_space("--tier"); v.empty()) {
    if (has_flag(args, "--tier")) {
      std::cerr << "error: --tier requires a value (auto|static|explore|tmod)\n";
      return 2;
    }
  } else {
    if (v == "auto") {
      copts.tier = check::Tier::Auto;
    } else if (v == "static") {
      copts.tier = check::Tier::Static;
    } else if (v == "explore") {
      copts.tier = check::Tier::Explore;
    } else if (v == "tmod") {
      copts.tier = check::Tier::Tmod;
    } else {
      std::cerr << "error: --tier expects auto|static|explore|tmod, got '" << v << "'\n";
      return 2;
    }
  }

  DiagnosticEngine engine;
  if (const std::string csv = flag_value(args, "--disable"); !csv.empty()) {
    std::stringstream ss(csv);
    std::string code;
    while (std::getline(ss, code, ',')) {
      if (code.empty()) continue;
      if (check::find_rule(code) == nullptr) {
        std::cerr << "error: unknown check code '" << code
                  << "' (see copar-cli check --list-checks)\n";
        return 2;
      }
      engine.disable_code(code);
    }
  }
  engine.load_suppressions(source);

  // Front end: collect every syntax/resolution error as a "syntax" finding.
  DiagnosticEngine front;
  auto module = lang::parse_program(source, front);
  check::CheckSummary sum;
  if (front.has_errors()) {
    for (const Diagnostic& d : front.all()) engine.report(d);
  } else {
    CompiledProgram prog;
    prog.module = std::move(module);
    prog.lowered = sem::lower(*prog.module);
    sum = check::run_checks(prog, engine, copts);
  }
  engine.sort_by_location();

  if (sarif) {
    engine.render_sarif(std::cout, path, check::catalog());
  } else if (g.json) {
    const bool checked = !front.has_errors();
    engine.render_json(std::cout, path, [&](support::JsonWriter& w) {
      if (!checked) return;
      w.key("tier");
      w.begin_object();
      w.key("mode");
      w.value(check::tier_name(sum.tier));
      w.key("pairs_total");
      w.value(sum.stats.pairs_total);
      w.key("pruned_mhp");
      w.value(sum.stats.pruned_mhp);
      w.key("pruned_lockset");
      w.value(sum.stats.pruned_lockset);
      w.key("candidates");
      w.value(sum.stats.candidates);
      w.key("confirmed");
      w.value(sum.stats.confirmed);
      w.key("refuted");
      w.value(sum.stats.refuted);
      w.key("budget_exhausted");
      w.value(sum.stats.budget_exhausted);
      w.key("configs_explored");
      w.value(sum.stats.configs_explored);
      w.key("explored");
      w.value(sum.explored);
      w.key("exhaustive");
      w.value(sum.concrete_exhaustive);
      w.end_object();
      if (sum.tmod.ran) {
        w.key("tmod");
        w.begin_object();
        w.key("threads");
        w.value(static_cast<std::uint64_t>(sum.tmod.threads));
        w.key("rounds");
        w.value(static_cast<std::uint64_t>(sum.tmod.rounds));
        w.key("truncated");
        w.value(sum.tmod.truncated);
        w.key("interference_facts");
        w.value(sum.tmod.interference_facts);
        w.key("alarms");
        w.value(sum.tmod.alarms);
        w.end_object();
      }
    });
  } else {
    if (engine.all().empty()) {
      std::cout << path << ": no findings\n";
    } else {
      engine.render_text(std::cout, source, path);
    }
    if (!front.has_errors() && copts.tier != check::Tier::Explore) {
      std::cerr << "tier " << check::tier_name(sum.tier) << ": "
                << sum.stats.pairs_total << " pairs, " << sum.stats.pruned_mhp
                << " mhp-pruned, " << sum.stats.pruned_lockset << " lockset-pruned, "
                << sum.stats.candidates << " candidates (" << sum.stats.confirmed
                << " confirmed, " << sum.stats.refuted << " refuted, "
                << sum.stats.budget_exhausted << " budget-exhausted), "
                << sum.stats.configs_explored << " configurations explored\n";
    }
    if (!front.has_errors() && !sum.concrete_exhaustive) {
      // Name what left the findings indefinite: the exploration's
      // --max-configs (a truncated one stops at exactly that many), race
      // searches out of --pair-budget, or a tier that confirms nothing
      // concretely — never suggesting the tier already running.
      if (sum.explored && sum.concrete_configs >= copts.max_configs) {
        std::cerr << "note: state space truncated at " << copts.max_configs
                  << " configurations; abstract may-findings included, raise --max-configs "
                     "to confirm\n";
      }
      if (sum.stats.budget_exhausted != 0) {
        std::cerr << "note: " << sum.stats.budget_exhausted
                  << " race candidate(s) left undecided: each directed search exhausted its "
                     "--pair-budget of "
                  << copts.pair_budget << " configurations; raise --pair-budget to decide them\n";
      }
      if (copts.tier == check::Tier::Tmod) {
        std::cerr << "note: thread-modular alarms left undecided; run --tier=auto to "
                     "confirm or refute them\n";
      } else if (copts.tier == check::Tier::Static) {
        std::cerr << "note: static tier left candidates unconfirmed; run --tier=auto or "
                     "--tier=explore to decide them\n";
      }
    }
  }
  return engine.has_errors() ? 1 : 0;
}

int cmd_witness(const copar::CompiledProgram& p, const std::vector<std::string>& args) {
  using namespace copar;
  explore::WitnessQuery q;
  if (has_flag(args, "--deadlock")) q.want_deadlock = true;
  for (const auto& [flag, want] : {std::pair{"--violation", &q.want_violation},
                                   std::pair{"--fault", &q.want_fault}}) {
    if (!has_flag(args, flag)) continue;
    // A missing label must not widen the query to "any terminal".
    const std::string label = flag_value(args, flag);
    if (label.empty() || label.starts_with("--")) {
      std::cerr << "error: " << flag << " expects a statement label\n";
      return 2;
    }
    const auto id = analysis::labeled_stmt(*p.lowered, label);
    if (!id.has_value()) {
      std::cerr << "no statement labeled '" << label << "'\n";
      return 2;
    }
    *want = *id;
  }
  const auto w = explore::find_witness(*p.lowered, q);
  if (!w.has_value()) {
    std::cout << "no matching terminal configuration is reachable\n";
    return 1;
  }
  std::cout << w->to_string(*p.lowered);
  return 0;
}

int cmd_graph(const copar::CompiledProgram& p, const std::vector<std::string>& args) {
  using namespace copar;
  explore::ExploreOptions opts;
  opts.record_graph = true;
  if (has_flag(args, "--stubborn")) opts.reduction = explore::Reduction::Stubborn;
  if (has_flag(args, "--coarsen")) opts.coarsen = true;
  const auto r = explore::explore(*p.lowered, opts);
  std::cout << to_dot(r.graph, *p.lowered);
  return 0;
}

int cmd_parallelize(const copar::CompiledProgram& p, const std::string& source,
                    const std::vector<std::string>& args) {
  using namespace copar;
  const std::string labels_csv = flag_value(args, "--labels");
  if (labels_csv.empty()) {
    std::cerr << "parallelize requires --labels s1,s2,...\n";
    return 2;
  }
  std::vector<std::string> labels;
  std::stringstream ss(labels_csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) labels.push_back(item);
  }
  absem::AbsExplorer<absdom::FlatInt> engine(*p.lowered, {});
  const auto abs = engine.run();
  const apps::ParallelSchedule sched = apps::parallelize_labeled(*p.lowered, abs, labels);
  std::cout << "== schedule ==\n" << sched.report(*p.lowered) << '\n';
  if (sched.chains.size() < 2) {
    std::cout << "no parallelism available (dependences form one chain)\n";
    return 0;
  }
  const std::string transformed = apps::rewrite_as_parallel_chains(*p.lowered, sched);
  std::cout << "== transformed program ==\n" << transformed << '\n';
  const bool ok = apps::observably_equivalent(source, transformed);
  std::cout << "== equivalence check (full exploration of both) ==\n"
            << (ok ? "EQUIVALENT: same observable outcomes\n"
                   : "NOT EQUIVALENT — transformation rejected\n");
  return ok ? 0 : 1;
}

/// `copar-cli metrics-dump` — run an exploration and print the metrics
/// export surface (the same snapshot copar-serve will serve over HTTP)
/// instead of the exploration report.
int cmd_metrics_dump(const copar::CompiledProgram& p, const std::vector<std::string>& args) {
  using namespace copar;
  explore::ExploreOptions opts;
  if (const int rc = parse_explore_opts(args, opts); rc != 0) return rc;
  std::string format = flag_value(args, "--format");
  if (format.empty()) format = "json";
  if (format != "json" && format != "prom" && format != "text") {
    std::cerr << "error: --format expects json, prom, or text, got '" << format << "'\n";
    return 2;
  }
  telemetry::Telemetry::global().enable_metrics();
  (void)explore::explore(*p.lowered, opts);
  finish_sampling();
  const auto snap = telemetry::MetricsSnapshot::capture();
  if (format == "prom") {
    snap.write_prometheus(std::cout);
  } else if (format == "text") {
    snap.write_text(std::cout);
  } else {
    snap.write_json(std::cout);
  }
  return 0;
}

/// Flushes the trace file and the metrics snapshot (if requested)
/// regardless of the exit path.
int finish(const GlobalOpts& g, int rc) {
  finish_sampling();
  if (!g.metrics_out.empty()) {
    std::ofstream out(g.metrics_out);
    if (!out) {
      std::cerr << "error: cannot write metrics to " << g.metrics_out << '\n';
      return rc == 0 ? 1 : rc;
    }
    const auto snap = copar::telemetry::MetricsSnapshot::capture();
    // Prometheus exposition when the target looks like a scrape file,
    // schema-pinned JSON otherwise.
    if (g.metrics_out.size() >= 5 &&
        g.metrics_out.compare(g.metrics_out.size() - 5, 5, ".prom") == 0) {
      snap.write_prometheus(out);
    } else {
      snap.write_json(out);
    }
  }
  if (!g.trace_path.empty()) {
    if (!copar::telemetry::Telemetry::global().write_trace_file(g.trace_path)) {
      std::cerr << "error: cannot write trace to " << g.trace_path << '\n';
      return rc == 0 ? 1 : rc;
    }
    std::cerr << "trace written to " << g.trace_path << " ("
              << copar::telemetry::Telemetry::global().trace_size()
              << " events); open in chrome://tracing or https://ui.perfetto.dev\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);
  const GlobalOpts global = extract_global_opts(args);
  if (global.missing_trace_path) {
    std::cerr << "error: --trace expects an output path\n";
    return 2;
  }
  if (global.bad_sample) {
    std::cerr << "error: --sample expects a positive interval in milliseconds\n";
    return 2;
  }
  if (global.missing_metrics_out) {
    std::cerr << "error: --metrics-out expects an output path\n";
    return 2;
  }
  apply_global_opts(global);

  if (cmd == "check" && path == "--list-checks") return cmd_list_checks();

  try {
    const std::string source = slurp(path);
    if (cmd == "check") {
      return finish(global, cmd_check(path, source, args, global));
    }
    if (cmd == "fmt") {
      auto module = copar::lang::parse_program(source);
      std::cout << copar::lang::print(*module);
      return finish(global, 0);
    }
    auto program = copar::compile(source);
    int rc;
    if (cmd == "run") {
      rc = cmd_run(*program, path, global);
    } else if (cmd == "explore") {
      rc = cmd_explore(*program, path, args, global);
    } else if (cmd == "analyze") {
      rc = cmd_analyze(*program, path, args, global);
    } else if (cmd == "abstract") {
      rc = cmd_abstract(*program, path, args, global);
    } else if (cmd == "witness") {
      rc = cmd_witness(*program, args);
    } else if (cmd == "parallelize") {
      rc = cmd_parallelize(*program, source, args);
    } else if (cmd == "graph") {
      rc = cmd_graph(*program, args);
    } else if (cmd == "metrics-dump") {
      rc = cmd_metrics_dump(*program, args);
    } else if (cmd == "disasm") {
      std::cout << program->lowered->disassemble();
      rc = 0;
    } else {
      return usage();
    }
    return finish(global, rc);
  } catch (const copar::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return finish(global, 1);
  } catch (const std::bad_alloc&) {
    // A program can ask for more memory than the host has (alloc of
    // billions of cells); end with a coded exit instead of an abort.
    std::cerr << "error: out of memory\n";
    return finish(global, 4);
  }
}
