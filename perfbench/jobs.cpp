#include "perfbench/jobs.h"

#include <exception>
#include <sstream>

#include "src/sem/program.h"

namespace perfbench {

namespace {

/// The race pairs of `findings`, as source-line pairs.
std::set<LinePair> reported_races(const copar::DiagnosticEngine& findings) {
  std::set<LinePair> out;
  for (const copar::Diagnostic& d : findings.all()) {
    if (d.code != "race") continue;
    const std::uint32_t other =
        d.related_spans.empty() ? d.span.begin.line : d.related_spans.front().begin.line;
    out.insert(line_pair(d.span.begin.line, other));
  }
  return out;
}

std::string pair_text(const LinePair& p) {
  return "lines " + std::to_string(p.first) + "/" + std::to_string(p.second);
}

}  // namespace

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

bool is_explore(Workload w) {
  return w == Workload::ExploreSeq || w == Workload::ExplorePar;
}

copar::explore::ExploreOptions explore_options(Workload w) {
  copar::explore::ExploreOptions o;
  o.reduction = copar::explore::Reduction::Stubborn;
  o.max_configs = kExploreBudget;
  o.threads = w == Workload::ExplorePar ? kParThreads : 1;
  return o;
}

copar::check::CheckOptions check_options(Workload w) {
  copar::check::CheckOptions o;
  if (w == Workload::CheckTmod) {
    o.tier = copar::check::Tier::Tmod;
    o.witnesses = false;
  }
  return o;
}

std::string explore_verdict(const Answer& a, const copar::explore::ExploreResult& r) {
  if (!r.violations.empty()) return "an assertion failed";
  if (!r.faults.empty()) return "a run-time fault occurred";
  if (r.deadlock_found && !a.deadlock) return "deadlock reported on a deadlock-free program";
  const std::set<std::int64_t> values = r.terminal_int_values(a.watch);
  if (!values.empty() && *values.rbegin() > a.watch_max) {
    return a.watch + " ends above its serial value " + std::to_string(a.watch_max);
  }
  if (r.truncated) return "";
  if (r.deadlock_found != a.deadlock) return "deadlock missed";
  if (values.empty() || *values.rbegin() != a.watch_max) {
    return a.watch + " never ends at its serial value " + std::to_string(a.watch_max);
  }
  if ((values.size() == 1) != a.watch_unique) {
    return a.watch + " has " + std::to_string(values.size()) + " terminal values";
  }
  return "";
}

std::string check_verdict(const Answer& a, const copar::DiagnosticEngine& findings, bool decided) {
  bool deadlock = false;
  for (const copar::Diagnostic& d : findings.all()) {
    if (d.code == "assert-fail") return "assert-fail on an assertion that holds";
    if (d.code == "deadlock" && d.severity == copar::Severity::Error) deadlock = true;
  }
  if (deadlock && !a.deadlock) return "deadlock reported on a deadlock-free program";
  if (decided && deadlock != a.deadlock) return "deadlock missed";
  const std::set<LinePair> races = reported_races(findings);
  for (const LinePair& p : a.must_race) {
    if (!races.contains(p)) return "race missed at " + pair_text(p);
  }
  for (const LinePair& p : races) {
    if (a.race_free_lines.contains(p.first) || a.race_free_lines.contains(p.second)) {
      return "race reported on race-free " + pair_text(p);
    }
    if (decided && a.races_bounded && !a.must_race.contains(p) && !a.may_race.contains(p)) {
      return "spurious race at " + pair_text(p);
    }
  }
  return "";
}

bool check_decided(Workload w, const copar::check::CheckSummary& sum) {
  return w == Workload::CheckTmod ? !sum.tmod.truncated : sum.concrete_exhaustive;
}

Outcome run_job(Workload w, const Job& job) {
  Outcome out;
  try {
    std::uint64_t t = now_ns();
    const std::unique_ptr<copar::CompiledProgram> prog = copar::compile(job.source);
    out.compile_ms = ms_since(t);
    if (is_explore(w)) {
      t = now_ns();
      const copar::explore::ExploreResult r =
          copar::explore::explore(*prog->lowered, explore_options(w));
      out.verb_ms = ms_since(t);
      out.undecided = r.truncated;
      out.why = explore_verdict(job.answer, r);
    } else {
      copar::DiagnosticEngine findings;
      t = now_ns();
      const copar::check::CheckSummary sum =
          copar::check::run_checks(*prog, findings, check_options(w));
      out.verb_ms = ms_since(t);
      std::ostringstream text;
      t = now_ns();
      findings.render_text(text, job.source, job.name);
      out.render_ms = ms_since(t);
      out.diagnostics = findings.all().size();
      const bool decided = check_decided(w, sum);
      out.undecided = !decided;
      out.why = check_verdict(job.answer, findings, decided);
    }
  } catch (const std::exception& e) {
    out.why = std::string("threw: ") + e.what();
  }
  out.failed = !out.why.empty();
  return out;
}

}  // namespace perfbench
