// copar-perfbench: the end-to-end benchmark of copar's user-facing commands.
//
//   copar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   copar-perfbench --selftest <samples-dir>
//   copar-perfbench --setup <workload> <seed> <start-ns>   (spawned by the timed run)
//
// --trace 0 times passes over the workload's corpus for about --seconds
// seconds with the phase timers off and prints the end-to-end metrics;
// --trace 1 makes one traced pass and prints the per-layer metrics. Both
// print one "name value unit" line per metric, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 when every verdict matched its known answer, 1 otherwise, 2 on a
// usage error. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench/corpus.h"
#include "perfbench/jobs.h"
#include "perfbench/trace.h"
#include "src/sem/program.h"

namespace {

using namespace perfbench;

/// Jobs between two set-ups timed for setup_s, so its samples (the median
/// is reported) are spread over the run like the job times.
constexpr std::size_t kSetupEvery = 25;

/// Keys the host-speed probe builds, counts and sorts: a working set of
/// about 0.4 MB, past the per-core caches, as copar's visited sets are.
constexpr int kProbeKeys = 4000;
/// The probe's time on the reference host in its quiet phase (README.md).
constexpr double kProbeRefMs = 1.25;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile: with 100 samples, p90 has 10 samples above it.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Peak RSS of this process image, from VmHWM. getrusage's ru_maxrss would
/// also count whatever ran in the process before exec (the Python wrapper).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Prints every metric as a line, then the result object as the last line.
void print_report(const RunReport& r) {
  for (const Metric& m : r.metrics) {
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// A fixed piece of work that runs no copar code: decimal keys built,
/// counted in a hash table and sorted, which allocates, hashes and compares
/// as copar's per-state work does. Its time measures the host's speed of
/// the moment, and no change to copar can move it.
double probe_ms() {
  static volatile std::size_t sink = 0;
  const std::uint64_t t0 = now_ns();
  std::unordered_map<std::string, std::uint32_t> table;
  std::vector<std::string> keys;
  std::uint64_t x = 1;
  for (int i = 0; i < kProbeKeys; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys.push_back(std::to_string(x >> 24));
    ++table[keys.back()];
  }
  std::sort(keys.begin(), keys.end());
  sink = sink + table.size() + keys.front().size();
  return ms_since(t0);
}

/// Seconds from just before this program is spawned afresh in --setup mode
/// to the moment the child has built the corpus: process start (exec,
/// loading, static initialisation) plus corpus generation.
double spawned_setup_s(Workload w, std::uint64_t seed) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot read /proc/self/exe");
  self[len] = '\0';
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string name(workload_name(w));
  std::string seed_arg = std::to_string(seed);
  const std::uint64_t t0 = now_ns();
  std::string t0_arg = std::to_string(t0);
  char* argv[] = {self, const_cast<char*>("--setup"), name.data(), seed_arg.data(), t0_arg.data(),
                  nullptr};
  pid_t pid = 0;
  const int err = posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; err == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (err != 0) throw std::runtime_error("posix_spawn failed");
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      out.empty()) {
    throw std::runtime_error("the --setup child failed");
  }
  return std::stod(out);
}

/// A run's times: the sum of the per-job times (in s), then their p50 and
/// p90 (in ms).
struct RunTimes {
  double wall_s;
  double p50_ms;
  double p90_ms;
};

/// A job's time is the minimum of its times over the passes, which are
/// spread across the run. The host runs at its full speed or about 1.6x
/// slower, switching within a second, and the fast spells are the minority:
/// any statistic above the minimum reports the share of slow spells the run
/// happened to meet. A pass costs the sum of the per-job times.
RunTimes summarize(const std::vector<std::vector<double>>& job_ms) {
  std::vector<double> per_job;
  double pass_ms = 0;
  for (const std::vector<double>& v : job_ms) {
    per_job.push_back(*std::min_element(v.begin(), v.end()));
    pass_ms += per_job.back();
  }
  return {pass_ms / 1e3, percentile(per_job, 0.5), percentile(per_job, 0.9)};
}

/// Passes over the corpus until another pass would overrun `seconds`.
///
/// Job times are reported in reference-host units: the probe runs between
/// every two jobs, and each job's time is scaled by kProbeRefMs / (the mean
/// of the probes just before and just after it); summarize() then takes the
/// minimum over the passes. setup_s is not scaled: process start does not
/// follow the probe. The unscaled times go to stderr.
RunReport timed_run(Workload w, std::uint64_t seed, double seconds) {
  const std::vector<Job> jobs = make_corpus(w, seed);
  std::vector<double> setup_s;

  RunReport r;
  std::vector<std::vector<double>> scaled_ms(jobs.size());
  std::vector<std::vector<double>> raw_ms(jobs.size());
  std::vector<double> probes{probe_ms()};
  std::uint64_t passes = 0;
  std::uint64_t undecided = 0;
  const std::uint64_t start = now_ns();
  for (;;) {
    const std::uint64_t pass_start = now_ns();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Outcome o = run_job(w, jobs[i]);
      // Every explore_par job registers worker tracks that only reset()
      // frees; a command-line process runs one job, not hundreds.
      copar::telemetry::Telemetry::global().reset();
      if (i % kSetupEvery == 0) setup_s.push_back(spawned_setup_s(w, seed));
      probes.push_back(probe_ms());
      const double host = (probes[probes.size() - 2] + probes.back()) / 2;
      raw_ms[i].push_back(o.total_ms());
      scaled_ms[i].push_back(o.total_ms() * kProbeRefMs / host);
      ++r.attempted;
      if (o.failed) {
        ++r.failed;
        std::cerr << "perfbench: " << jobs[i].name << ": " << o.why << "\n";
      }
      if (o.undecided) ++undecided;
    }
    ++passes;
    const double pass_s = ms_since(pass_start) / 1e3;
    if (ms_since(start) / 1e3 + pass_s > seconds) break;
  }

  const RunTimes scaled = summarize(scaled_ms);
  const RunTimes raw = summarize(raw_ms);
  const auto frac = [&](std::uint64_t k) {
    return 1.0 - static_cast<double>(k) / static_cast<double>(r.attempted);
  };
  r.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", scaled.wall_s, "s"},
      {"job_ms_p50", scaled.p50_ms, "ms"},
      {"job_ms_p90", scaled.p90_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"correct_frac", frac(r.failed), "ratio"},
      {"decided_frac", frac(undecided), "ratio"},
  };
  std::cerr << "perfbench: " << workload_name(w) << " seed " << seed << ": " << jobs.size()
            << " jobs x " << passes << " passes, probe " << number(median(probes))
            << " ms; unscaled: wall_s "
            << number(raw.wall_s) << " job_ms_p50 " << number(raw.p50_ms) << " job_ms_p90 "
            << number(raw.p90_ms) << "\n";
  return r;
}

// --- self-test ---------------------------------------------------------------

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool same_corpus(const std::vector<Job>& a, const std::vector<Job>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Answer& x = a[i].answer;
    const Answer& y = b[i].answer;
    if (a[i].name != b[i].name || a[i].source != b[i].source || x.deadlock != y.deadlock ||
        x.watch != y.watch || x.watch_max != y.watch_max || x.watch_unique != y.watch_unique ||
        x.must_race != y.must_race || x.may_race != y.may_race ||
        x.race_free_lines != y.race_free_lines) {
      return false;
    }
  }
  return true;
}

int selftest(const std::string& samples) {
  for (const Workload w : kWorkloads) {
    const std::string name(workload_name(w));
    const std::vector<Job> a = make_corpus(w, 1);
    expect(a.size() >= 100, name + ": a pass has at least 100 jobs");
    expect(same_corpus(a, make_corpus(w, 1)), name + ": same seed, same corpus");
    expect(!same_corpus(a, make_corpus(w, 2)), name + ": another seed, another corpus");
  }

  const copar::explore::ExploreOptions seq = explore_options(Workload::ExploreSeq);
  const copar::check::CheckOptions aut = check_options(Workload::CheckAuto);

  // philosophers3.cop is the hand-written right-handed table of three.
  const Job phil3 = philosophers(3, false);
  const auto sample_phil = copar::compile(read_file(samples + "/philosophers3.cop"));
  expect(copar::explore::explore(*sample_phil->lowered, seq).deadlock_found ==
             phil3.answer.deadlock,
         "philosophers3.cop deadlocks, as philosophers(3, right-handed) is known to");
  expect(explore_verdict(phil3.answer,
                         copar::explore::explore(*copar::compile(phil3.source)->lowered, seq))
             .empty(),
         "generated philosophers(3) agrees with its answer");

  // peterson.cop is the hand-written filter lock of two threads: the filter
  // answer (assert holds, no deadlock, in_cs race-free) must hold for it.
  const std::string peterson = read_file(samples + "/peterson.cop");
  const Job filt2 = filter_lock(2, 1);
  Answer pa = filt2.answer;
  pa.race_free_lines.clear();
  std::istringstream lines(peterson);
  std::string line;
  for (std::uint32_t no = 1; std::getline(lines, line); ++no) {
    if (line.find("in_cs") != std::string::npos && line.find("var ") == std::string::npos) {
      pa.race_free_lines.insert(no);
    }
  }
  expect(pa.race_free_lines.size() == 6, "peterson.cop has six in_cs statements");
  const auto sample_pet = copar::compile(peterson);
  expect(explore_verdict(pa, copar::explore::explore(*sample_pet->lowered, seq)).empty(),
         "peterson.cop explores to the filter answer");
  copar::DiagnosticEngine pf;
  const copar::check::CheckSummary ps = copar::check::run_checks(*sample_pet, pf, aut);
  expect(check_verdict(pa, pf, check_decided(Workload::CheckAuto, ps)).empty(),
         "peterson.cop checks to the filter answer");
  const auto gen_filt = copar::compile(filt2.source);
  expect(explore_verdict(filt2.answer, copar::explore::explore(*gen_filt->lowered, seq)).empty(),
         "generated filter(2) explores to its answer");
  copar::DiagnosticEngine ff;
  const copar::check::CheckSummary fs = copar::check::run_checks(*gen_filt, ff, aut);
  expect(check_verdict(filt2.answer, ff, check_decided(Workload::CheckAuto, fs)).empty(),
         "generated filter(2) checks to its answer");

  // The known answers must be able to fail: a wrong answer is caught.
  Answer wrong = phil3.answer;
  wrong.deadlock = false;
  expect(!explore_verdict(wrong, copar::explore::explore(*sample_phil->lowered, seq)).empty(),
         "a wrong deadlock answer is detected");
  Job cnt = counters(3, 3, 2, 7);
  cnt.answer.must_race.insert({1000, 1001});
  expect(!run_job(Workload::CheckAuto, cnt).why.empty(), "a missed race is detected");

  std::cerr << "selftest: " << (failures == 0 ? "ok" : std::to_string(failures) + " failed")
            << "\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: copar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       copar-perfbench --selftest <samples-dir>\n"
               "workloads:";
  for (const Workload w : kWorkloads) std::cerr << " " << workload_name(w);
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--selftest") return selftest(args[1]);
  Workload w{};
  if (args.size() == 4 && args[0] == "--setup" && parse_workload(args[1], w)) {
    // One set-up of a fresh process for timed_run's setup_s: args[3] is the
    // spawning parent's clock reading just before the spawn.
    const std::vector<Job> jobs = make_corpus(w, std::stoull(args[2]));
    std::cout << number(ms_since(std::stoull(args[3])) / 1e3) << std::endl;
    return jobs.empty() ? 1 : 0;
  }

  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  if (args.size() != 8) return usage();
  try {
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
      const std::string& v = args[i + 1];
      if (args[i] == "--workload") {
        workload = v;
      } else if (args[i] == "--seed") {
        seed = std::stoull(v);
      } else if (args[i] == "--seconds") {
        seconds = std::stod(v);
      } else if (args[i] == "--trace") {
        trace = std::stoi(v);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!parse_workload(workload, w) || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    const RunReport r =
        trace == 1 ? traced_run(w, make_corpus(w, seed)) : timed_run(w, seed, seconds);
    print_report(r);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
