#include "src/analysis/racecand.h"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <tuple>

#include "src/analysis/common.h"
#include "src/lang/ast.h"

namespace copar::analysis {

namespace {

struct Agg {
  bool parallel = false;    // some live occurrence pair may run concurrently
  bool unprotected = false; // ... with disjoint must-locksets
  bool ww = false, wr = false;  // kinds over parallel unprotected occurrences
  unsigned lock_bit = 0;    // a protecting lock of the first protected occurrence
  bool have_lock = false;
};

}  // namespace

CandidateReport race_candidates(const sem::LoweredProgram& prog,
                                const explore::StaticInfo& info,
                                const StaticParallelism& par, const LockSets& locks) {
  // Access-bearing instruction occurrences, skipping points the lockset
  // analysis proves unreachable (they cannot execute, hence cannot race).
  struct Occ {
    std::uint32_t proc = 0, pc = 0, stmt = 0;
  };
  std::vector<Occ> occs;
  for (const sem::Proc& p : prog.procs()) {
    for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
      if (p.code[pc].stmt == nullptr) continue;
      if (!locks.live(p.id, pc)) continue;
      if (info.instr_reads(p.id, pc).empty() && info.instr_writes(p.id, pc).empty()) {
        continue;
      }
      occs.push_back(Occ{p.id, pc, p.code[pc].stmt->id()});
    }
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, Agg> pairs;
  for (std::size_t a = 0; a < occs.size(); ++a) {
    const DynamicBitset& ra = info.instr_reads(occs[a].proc, occs[a].pc);
    const DynamicBitset& wa = info.instr_writes(occs[a].proc, occs[a].pc);
    for (std::size_t b = a; b < occs.size(); ++b) {
      const DynamicBitset& rb = info.instr_reads(occs[b].proc, occs[b].pc);
      const DynamicBitset& wb = info.instr_writes(occs[b].proc, occs[b].pc);
      const bool ww = wa.intersects(wb);
      const bool wr = wa.intersects(rb) || ra.intersects(wb);
      if (!ww && !wr) continue;
      if (is_sync_stmt(prog, occs[a].stmt) && is_sync_stmt(prog, occs[b].stmt)) continue;
      Agg& agg = pairs[{std::min(occs[a].stmt, occs[b].stmt),
                        std::max(occs[a].stmt, occs[b].stmt)}];
      if (!par.parallel_procs(occs[a].proc, occs[b].proc)) continue;
      agg.parallel = true;
      const LockSets::Mask common =
          locks.held(occs[a].proc, occs[a].pc) & locks.held(occs[b].proc, occs[b].pc);
      if (common != 0) {
        if (!agg.have_lock) {
          agg.lock_bit = static_cast<unsigned>(std::countr_zero(common));
          agg.have_lock = true;
        }
      } else {
        agg.unprotected = true;
        agg.ww = agg.ww || ww;
        agg.wr = agg.wr || wr;
      }
    }
  }

  CandidateReport out;
  out.pairs_total = pairs.size();
  for (const auto& [key, agg] : pairs) {
    if (!agg.parallel) {
      ++out.pruned_mhp;
    } else if (!agg.unprotected) {
      ++out.pruned_lockset;
      out.suppressed.push_back(SuppressedPair{key.first, key.second,
                                              locks.lock_name(agg.lock_bit)});
    } else {
      RaceCandidate c;
      c.stmt1 = key.first;
      c.stmt2 = key.second;
      c.write_write = agg.ww;
      c.write_read = agg.wr;
      c.score = (agg.ww ? 2 : 0) + (agg.wr ? 1 : 0);
      out.candidates.push_back(c);
    }
  }
  auto source_key = [&](std::uint32_t s, std::uint32_t t) {
    return std::make_tuple(prog.stmt_span(s), prog.stmt_span(t), s, t);
  };
  std::sort(out.candidates.begin(), out.candidates.end(),
            [&](const RaceCandidate& a, const RaceCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return source_key(a.stmt1, a.stmt2) < source_key(b.stmt1, b.stmt2);
            });
  std::sort(out.suppressed.begin(), out.suppressed.end(),
            [&](const SuppressedPair& a, const SuppressedPair& b) {
              return source_key(a.stmt1, a.stmt2) < source_key(b.stmt1, b.stmt2);
            });
  return out;
}

std::string CandidateReport::report(const sem::LoweredProgram& prog) const {
  std::ostringstream os;
  os << "pairs " << pairs_total << " mhp-pruned " << pruned_mhp << " lockset-pruned "
     << pruned_lockset << " candidates " << candidates.size() << '\n';
  for (const RaceCandidate& c : candidates) {
    os << "candidate: " << describe_stmt(prog, c.stmt1) << " || "
       << describe_stmt(prog, c.stmt2) << " (";
    if (c.write_write) os << "write/write";
    if (c.write_write && c.write_read) os << ", ";
    if (c.write_read) os << "write/read";
    os << ")\n";
  }
  for (const SuppressedPair& s : suppressed) {
    os << "suppressed: " << describe_stmt(prog, s.stmt1) << " || "
       << describe_stmt(prog, s.stmt2) << " (lock " << s.lock << ")\n";
  }
  return os.str();
}

absem::TmodOptions tmod_options(const StaticParallelism& par, const LockSets& locks) {
  absem::TmodOptions topts;
  if (locks.pristine()) {
    // Tainted lock cells cannot prove mutual exclusion; leaving the hook
    // null (mask 0 everywhere) keeps the pruning sound.
    topts.must_locks = [&locks](std::uint32_t p, std::uint32_t pc) -> std::uint64_t {
      return locks.live(p, pc) ? locks.held(p, pc) : 0;
    };
  }
  topts.self_parallel = [&par](std::uint32_t p) { return par.parallel_procs(p, p); };
  topts.parallel = [&par](std::uint32_t s, std::uint32_t t) { return par.parallel_stmts(s, t); };
  return topts;
}

}  // namespace copar::analysis
