// copar-cli — command-line driver for the framework.
//
//   copar-cli <verb> <file.cop> [options]
//
// The verbs, their options and the global observability options are the
// tables kVerbs and kGlobalOptions below; one parser reads them all and
// usage() prints them, so `copar-cli` without arguments lists every option.
//
// Exit codes: 0 success, 1 error (or error-severity findings from check),
// 2 usage, 3 truncated exploration, 4 out of memory.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
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

/// Every option of every verb; a verb's tables name the fields it reads.
/// A count left at 0 was not given (counts are positive).
struct Opts {
  std::string file;
  // Global observability options.
  bool json = false;
  std::string trace_path;
  double progress_s = 0;  // 0: no heartbeat
  double sample_ms = 0;   // 0: sampler off
  std::string metrics_out;
  // Exploration (explore, graph, metrics-dump).
  bool stubborn = false;
  bool coarsen = false;
  bool sleep = false;
  bool exact_keys = false;
  std::uint64_t max_configs = 0;
  std::uint64_t threads = 0;
  std::string format = "json";
  std::string engine = "explore";
  bool clan = false;
  // check
  bool list_checks = false;
  bool sarif = false;
  bool no_witness = false;
  std::string disable;
  std::string tier = "auto";
  std::uint64_t pair_budget = 0;
  // witness, parallelize
  bool deadlock = false;
  std::string violation;
  std::string fault;
  std::string labels;
};

enum class Kind : std::uint8_t {
  Switch,  // no value
  Count,   // decimal digits only, at least 1 and at most `max`
  Enum,    // one of the '|'-separated choices in `value`
  String,  // any non-empty text
  Number,  // a finite decimal number above 0 and at most `max`
};

/// One row of an option table.
struct Option {
  std::string_view flag;
  Kind kind;
  std::variant<bool Opts::*, std::uint64_t Opts::*, double Opts::*, std::string Opts::*> target;
  std::string_view value;  // the value's name in usage; Enum: the choices
  std::string_view help;
  double max = std::numeric_limits<double>::infinity();
  std::string_view implied = {};  // the value of a bare flag (none: required)
};

// A Number interval is at most ~317 years, so its nanosecond count fits in
// 64 bits.
constexpr Option kGlobalOptions[] = {
    {"--json", Kind::Switch, &Opts::json, "",
     "machine-readable report: one JSON document on stdout"},
    {"--trace", Kind::String, &Opts::trace_path, "<out.json>",
     "Chrome trace_event timeline of the engine phases"},
    {"--progress", Kind::Number, &Opts::progress_s, "[secs]",
     "stderr heartbeat every secs seconds (default 2)", 1e10, "2"},
    {"--sample", Kind::Number, &Opts::sample_ms, "<ms>",
     "sample the live gauges every ms milliseconds", 1e13},
    {"--metrics-out", Kind::String, &Opts::metrics_out, "<file>",
     "metrics snapshot after the run (*.prom: Prometheus text)"},
};

constexpr Option kReductionOptions[] = {
    {"--stubborn", Kind::Switch, &Opts::stubborn, "", "stubborn-set reduction (Algorithm 1)"},
    {"--coarsen", Kind::Switch, &Opts::coarsen, "", "virtual coarsening (Observation 5)"},
};

constexpr Option kExploreOptions[] = {
    {"--sleep", Kind::Switch, &Opts::sleep, "", "sleep sets: prune covered interleavings"},
    {"--max-configs", Kind::Count, &Opts::max_configs, "N",
     "configuration budget (exit 3 when hit)"},
    {"--threads", Kind::Count, &Opts::threads, "N",
     "worker threads (above 1: the work-stealing engine)", 1024},
    {"--exact-keys", Kind::Switch, &Opts::exact_keys, "",
     "full canonical keys; counts fingerprint collisions"},
};

constexpr Option kMetricsDumpOptions[] = {
    {"--format", Kind::Enum, &Opts::format, "json|prom|text", "snapshot format (default json)"},
};

constexpr Option kAnalyzeOptions[] = {
    {"--engine", Kind::Enum, &Opts::engine, "explore|tmod",
     "tmod: thread-modular rely/guarantee report, no interleavings"},
};

constexpr Option kAbstractOptions[] = {
    {"--clan", Kind::Switch, &Opts::clan, "", "fold configurations by clan instead of tree"},
};

constexpr Option kCheckOptions[] = {
    {"--list-checks", Kind::Switch, &Opts::list_checks, "",
     "print the catalog of check codes (no file needed)"},
    {"--sarif", Kind::Switch, &Opts::sarif, "", "SARIF 2.1.0 instead of text"},
    {"--disable", Kind::String, &Opts::disable, "<c1,c2,...>", "turn these check codes off"},
    {"--no-witness", Kind::Switch, &Opts::no_witness, "",
     "no directed witness searches for race candidates"},
    {"--tier", Kind::Enum, &Opts::tier, "auto|static|explore|tmod",
     "race pipeline (default auto; docs/TIERED_CHECKING.md)"},
    {"--pair-budget", Kind::Count, &Opts::pair_budget, "N",
     "per-candidate budget of the race witness search"},
    {"--max-configs", Kind::Count, &Opts::max_configs, "N",
     "configuration budget of the exploration"},
};

constexpr Option kWitnessOptions[] = {
    {"--deadlock", Kind::Switch, &Opts::deadlock, "", "a schedule into a deadlock"},
    {"--violation", Kind::String, &Opts::violation, "<label>",
     "a schedule that fails the assert labeled so"},
    {"--fault", Kind::String, &Opts::fault, "<label>",
     "a schedule that faults at the statement labeled so"},
};

constexpr Option kParallelizeOptions[] = {
    {"--labels", Kind::String, &Opts::labels, "<s1,s2,...>", "the statements to schedule"},
};

/// A verb: its usage summary, its option tables (the global options apply
/// too) and the command reading the source text and the parsed options.
struct Verb {
  std::string_view name;
  std::string_view summary;
  std::vector<std::span<const Option>> tables;
  int (*run)(const std::string& source, const Opts& o);
};

/// Prints `error: <subject> <what>` and returns false.
bool fail(std::string_view subject, std::string_view what) {
  std::cerr << "error: " << subject << ' ' << what << '\n';
  return false;
}

/// Stores `value` (nullopt: the flag came bare) into the row's target.
bool set_option(const Option& opt, std::optional<std::string_view> value, Opts& o) {
  if (opt.kind == Kind::Switch) {
    if (value) return fail(opt.flag, "takes no value");
    o.*std::get<bool Opts::*>(opt.target) = true;
    return true;
  }
  if (!value && !opt.implied.empty()) value = opt.implied;
  if (!value || value->empty()) return fail(opt.flag, "requires a value " + std::string(opt.value));
  const std::string_view v = *value;
  const char* const last = v.data() + v.size();
  switch (opt.kind) {
    case Kind::Count: {
      // A sign, an overflow or trailing bytes are rejected instead of
      // wrapping into an effectively unbounded budget.
      std::uint64_t n = 0;
      const auto [end, ec] = std::from_chars(v.data(), last, n);
      if (ec != std::errc() || end != last || n == 0 || static_cast<double>(n) > opt.max) break;
      o.*std::get<std::uint64_t Opts::*>(opt.target) = n;
      return true;
    }
    case Kind::Number: {
      double x = 0;
      const auto [end, ec] = std::from_chars(v.data(), last, x);
      if (ec != std::errc() || end != last || !(x > 0 && x <= opt.max)) break;
      o.*std::get<double Opts::*>(opt.target) = x;
      return true;
    }
    case Kind::Enum: {
      std::stringstream choices{std::string(opt.value)};
      for (std::string c; std::getline(choices, c, '|');) {
        if (c != v) continue;
        o.*std::get<std::string Opts::*>(opt.target) = c;
        return true;
      }
      break;
    }
    default:
      o.*std::get<std::string Opts::*>(opt.target) = v;
      return true;
  }
  std::ostringstream what;
  what << "expects ";
  if (opt.kind == Kind::Enum) {
    what << opt.value;
  } else {
    what << (opt.kind == Kind::Count ? "a positive integer" : "a positive number");
    if (opt.max < std::numeric_limits<double>::infinity()) what << " of at most " << opt.max;
  }
  what << ", got '" << v << "'";
  return fail(opt.flag, what.str());
}

/// Reads `args` against the verb's tables and the global one into `o`: the
/// one argument that is not an option is the file. `--flag value` and
/// `--flag=value` read alike, and a value that starts with `--` counts as
/// missing. False (after naming the fault) on an unknown flag, a stray
/// argument, or a missing or malformed value.
bool parse_args(const Verb& verb, const std::vector<std::string>& args, Opts& o) {
  std::vector<std::span<const Option>> tables = verb.tables;
  tables.emplace_back(kGlobalOptions);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    if (!a.starts_with("--")) {
      if (!o.file.empty()) return fail("unexpected argument", "'" + std::string(a) + "'");
      o.file = a;
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string_view flag = a.substr(0, eq);
    const Option* opt = nullptr;
    for (const auto table : tables) {
      const auto it = std::ranges::find(table, flag, &Option::flag);
      if (it != table.end()) opt = &*it;
    }
    if (opt == nullptr) return fail("unknown option", "'" + std::string(flag) + "'");
    std::optional<std::string_view> value;
    if (eq != std::string_view::npos) {
      value = a.substr(eq + 1);
    } else if (opt->kind != Kind::Switch && i + 1 < args.size() &&
               !args[i + 1].starts_with("--")) {
      value = args[++i];
    }
    if (!set_option(*opt, value, o)) return false;
  }
  return true;
}

void print_options(std::span<const Option> table) {
  for (const Option& opt : table) {
    std::string head = "  " + std::string(opt.flag);
    if (!opt.value.empty()) head += " " + std::string(opt.value);
    head.resize(std::max<std::size_t>(head.size() + 2, 34), ' ');
    std::cerr << head << opt.help << '\n';
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw copar::Error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void apply_global_opts(const Opts& g) {
  auto& tel = copar::telemetry::Telemetry::global();
  if (g.json || !g.trace_path.empty() || !g.metrics_out.empty()) tel.enable_metrics();
  if (!g.trace_path.empty()) tel.enable_trace();
  if (g.progress_s > 0) tel.enable_progress(g.progress_s);
  if (g.sample_ms > 0) tel.start_sampler(g.sample_ms);
}

/// Stops the sampler (taking a final end-of-run sample) so reports and
/// trace flushes see the completed timeline. Safe to call repeatedly.
void finish_sampling() { copar::telemetry::Telemetry::global().stop_sampler(); }

int cmd_run(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  const explore::ExploreOptions opts;
  const auto r = explore::explore(*p.lowered, opts);
  finish_sampling();
  const int rc = r.deadlock_found || !r.violations.empty() || !r.faults.empty() ? 1 : 0;
  if (g.json) {
    support::JsonWriter w(std::cout);
    explore::write_json_report(w, "run", g.file, r, opts, p.lowered.get());
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

/// The exploration options `o` selects (`explore` and `metrics-dump` read
/// the same ones); nullopt, after naming the clash, when the parallel
/// engine cannot honour them.
std::optional<copar::explore::ExploreOptions> explore_options(const Opts& o) {
  using namespace copar;
  explore::ExploreOptions opts;
  if (o.stubborn) opts.reduction = explore::Reduction::Stubborn;
  opts.coarsen = o.coarsen;
  opts.sleep_sets = o.sleep;
  opts.exact_keys = o.exact_keys;
  if (o.max_configs != 0) opts.max_configs = o.max_configs;
  if (o.threads != 0) opts.threads = static_cast<unsigned>(o.threads);
  if (const auto d = explore::parallel_unsupported(opts)) {
    std::cerr << "error (" << d->code << "): " << d->message << '\n';
    return std::nullopt;
  }
  return opts;
}

int cmd_explore(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  const auto opts = explore_options(g);
  if (!opts) return 2;
  const auto r = explore::explore(*p.lowered, *opts);
  finish_sampling();
  if (g.json) {
    support::JsonWriter w(std::cout);
    explore::write_json_report(w, "explore", g.file, r, *opts);
    std::cout << '\n';
  } else {
    std::cout << r.stats.to_string();
  }
  if (r.truncated) {
    std::cerr << "error: exploration truncated at " << opts->max_configs
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
int cmd_analyze_tmod(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  const sem::LoweredProgram& prog = *p.lowered;

  // Static lockset / MHP facts prune interference and race pairs.
  const explore::StaticInfo info(prog);
  const analysis::StaticParallelism par(prog, info);
  const analysis::LockSets locks(prog, info);
  const auto r =
      absem::tmod_analyze<absdom::Interval>(prog, analysis::tmod_options(par, locks));
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
    w.value(g.file);
    telemetry::write_stat_map(w, "counters", {&r.stats.all()});
    telemetry::write_phases(w);
    telemetry::write_memory(w);
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

int cmd_analyze(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  if (g.engine == "tmod") return cmd_analyze_tmod(p, g);
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
    w.value(g.file);
    telemetry::write_stat_map(w, "counters", {&concrete.stats.all(), &abs.stats.all()});
    telemetry::write_stat_map(w, "gauges", {&concrete.stats.gauges()});
    telemetry::write_phases(w);
    telemetry::write_memory(w);
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

int cmd_abstract(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  absem::AbsOptions opts;
  if (g.clan) opts.folding = absem::Folding::Clan;
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
    w.value(g.file);
    w.key("options");
    w.begin_object();
    w.key("folding");
    w.value(opts.folding == absem::Folding::Clan ? "clan" : "tree");
    w.key("max_states");
    w.value(opts.max_states);
    w.end_object();
    telemetry::write_stat_map(w, "counters", {&r.stats.all()});
    telemetry::write_stat_map(w, "gauges", {&r.stats.gauges()});
    telemetry::write_phases(w);
    telemetry::write_memory(w);
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
int cmd_check(const std::string& source, const Opts& g) {
  using namespace copar;
  const std::string& path = g.file;
  check::CheckOptions copts;
  if (g.no_witness) copts.witnesses = false;
  if (g.max_configs != 0) copts.max_configs = g.max_configs;
  if (g.pair_budget != 0) copts.pair_budget = g.pair_budget;
  for (const check::Tier t :
       {check::Tier::Auto, check::Tier::Static, check::Tier::Explore, check::Tier::Tmod}) {
    if (check::tier_name(t) == g.tier) copts.tier = t;
  }

  DiagnosticEngine engine;
  std::stringstream ss(g.disable);
  for (std::string code; std::getline(ss, code, ',');) {
    if (code.empty()) continue;
    if (check::find_rule(code) == nullptr) {
      std::cerr << "error: unknown check code '" << code
                << "' (see copar-cli check --list-checks)\n";
      return 2;
    }
    engine.disable_code(code);
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

  if (g.sarif) {
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

int cmd_witness(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  explore::WitnessQuery q;
  q.want_deadlock = g.deadlock;
  for (const auto& [label, want] : {std::pair{&g.violation, &q.want_violation},
                                    std::pair{&g.fault, &q.want_fault}}) {
    if (label->empty()) continue;
    const auto id = analysis::labeled_stmt(*p.lowered, *label);
    if (!id.has_value()) {
      std::cerr << "no statement labeled '" << *label << "'\n";
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

int cmd_graph(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  explore::ExploreOptions opts;
  opts.record_graph = true;
  if (g.stubborn) opts.reduction = explore::Reduction::Stubborn;
  opts.coarsen = g.coarsen;
  const auto r = explore::explore(*p.lowered, opts);
  std::cout << to_dot(r.graph, *p.lowered);
  return 0;
}

int cmd_parallelize(const copar::CompiledProgram& p, const std::string& source,
                    const Opts& g) {
  using namespace copar;
  std::vector<std::string> labels;
  std::stringstream ss(g.labels);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) labels.push_back(item);
  }
  if (labels.empty()) {
    std::cerr << "parallelize requires --labels s1,s2,...\n";
    return 2;
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
int cmd_metrics_dump(const copar::CompiledProgram& p, const Opts& g) {
  using namespace copar;
  const auto opts = explore_options(g);
  if (!opts) return 2;
  telemetry::Telemetry::global().enable_metrics();
  (void)explore::explore(*p.lowered, *opts);
  finish_sampling();
  const auto snap = telemetry::MetricsSnapshot::capture();
  if (g.format == "prom") {
    snap.write_prometheus(std::cout);
  } else if (g.format == "text") {
    snap.write_text(std::cout);
  } else {
    snap.write_json(std::cout);
  }
  return 0;
}

/// Compiles the source, then runs `cmd` on the program.
template <auto cmd>
int compiled(const std::string& source, const Opts& o) {
  return cmd(*copar::compile(source), o);
}

const Verb kVerbs[] = {
    {"run", "run all interleavings, print outcomes", {}, compiled<cmd_run>},
    {"explore", "state-space statistics; exit 3 when the exploration was truncated",
     {kReductionOptions, kExploreOptions}, compiled<cmd_explore>},
    {"analyze", "§5 analyses and §7 applications report", {kAnalyzeOptions},
     compiled<cmd_analyze>},
    {"abstract", "abstract exploration summary", {kAbstractOptions}, compiled<cmd_abstract>},
    {"check", "static diagnostics (races, faults, uninitialized reads, dead code...)",
     {kCheckOptions}, cmd_check},
    {"witness", "print a schedule exhibiting the fact", {kWitnessOptions},
     compiled<cmd_witness>},
    {"parallelize", "schedule the labeled statements into parallel chains and verify",
     {kParallelizeOptions},
     [](const std::string& source, const Opts& o) {
       return cmd_parallelize(*copar::compile(source), source, o);
     }},
    {"graph", "Graphviz dot of the configuration graph", {kReductionOptions},
     compiled<cmd_graph>},
    {"disasm", "lowered atomic-action code", {},
     [](const std::string& source, const Opts&) {
       std::cout << copar::compile(source)->lowered->disassemble();
       return 0;
     }},
    {"fmt", "pretty-print the parsed program", {},
     [](const std::string& source, const Opts&) {
       std::cout << copar::lang::print(*copar::lang::parse_program(source));
       return 0;
     }},
    {"metrics-dump", "run an exploration, print the metrics snapshot instead of the report",
     {kReductionOptions, kExploreOptions, kMetricsDumpOptions}, compiled<cmd_metrics_dump>},
};

/// Prints the usage of `only` (null: of every verb) from the option tables
/// and returns the usage exit code.
int usage(const Verb* only) {
  std::cerr << "usage: copar-cli " << (only != nullptr ? only->name : "<verb>")
            << " <file.cop> [options]\n";
  for (const Verb& v : kVerbs) {
    if (only != nullptr && &v != only) continue;
    std::cerr << v.name << ": " << v.summary << '\n';
    for (const auto table : v.tables) print_options(table);
  }
  std::cerr << "global options:\n";
  print_options(kGlobalOptions);
  return 2;
}

/// Flushes the trace file and the metrics snapshot (if requested)
/// regardless of the exit path.
int finish(const Opts& g, int rc) {
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
    if (g.metrics_out.ends_with(".prom")) {
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
  const std::string_view name = argc > 1 ? argv[1] : "";
  const auto verb = std::ranges::find(kVerbs, name, &Verb::name);
  if (verb == std::end(kVerbs)) return usage(nullptr);
  Opts o;
  if (!parse_args(*verb, std::vector<std::string>(argv + 2, argv + argc), o)) {
    return usage(&*verb);
  }
  if (o.list_checks) return cmd_list_checks();
  if (o.file.empty()) {
    std::cerr << "error: no <file.cop> given\n";
    return usage(&*verb);
  }
  apply_global_opts(o);
  try {
    return finish(o, verb->run(slurp(o.file), o));
  } catch (const copar::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return finish(o, 1);
  } catch (const std::bad_alloc&) {
    // A program can ask for more memory than the host has (alloc of
    // billions of cells); end with a coded exit instead of an abort.
    std::cerr << "error: out of memory\n";
    return finish(o, 4);
  }
}
