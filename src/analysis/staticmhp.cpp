#include "src/analysis/staticmhp.h"

namespace copar::analysis {

StaticParallelism::StaticParallelism(const sem::LoweredProgram& prog,
                                     const explore::StaticInfo& info)
    : n_(prog.procs().size()) {
  for (const sem::Proc& p : prog.procs()) {
    for (const sem::Instr& i : p.code) {
      if (i.stmt == nullptr) continue;
      const std::uint32_t s = i.stmt->id();
      if (s >= procs_of_.size()) procs_of_.resize(s + 1);
      if (procs_of_[s].empty() || procs_of_[s].back() != p.id) procs_of_[s].push_back(p.id);
    }
  }
  par_.assign(n_ * n_, 0);
  auto mark = [&](std::uint32_t a, std::uint32_t b) {
    par_[a * n_ + b] = 1;
    par_[b * n_ + a] = 1;
  };
  // Only fork sites in procs reachable from the entry create concurrency;
  // fork structure in dead code is ignored (the `unreachable` check flags
  // the code itself).
  for (const std::uint32_t p : info.reachable_procs(prog.entry_proc())) {
    for (const sem::Instr& i : prog.procs()[p].code) {
      if (i.op == sem::Op::Fork) {
        for (std::size_t a = 0; a < i.forks.size(); ++a) {
          for (std::size_t b = a + 1; b < i.forks.size(); ++b) {
            for (const std::uint32_t x : info.reachable_procs(i.forks[a])) {
              for (const std::uint32_t y : info.reachable_procs(i.forks[b])) {
                mark(x, y);
              }
            }
          }
        }
      } else if (i.op == sem::Op::ForkRange) {
        // Every instance of the doall body runs concurrently with every
        // other instance (and everything either reaches).
        const std::vector<std::uint32_t>& reach = info.reachable_procs(i.forks.at(0));
        for (const std::uint32_t x : reach) {
          for (const std::uint32_t y : reach) mark(x, y);
        }
      }
    }
  }
}

Mhp StaticParallelism::stmt_mhp() const {
  // Statement ids per proc, ascending: the index inverted.
  std::vector<std::vector<std::uint32_t>> stmts(n_);
  for (std::uint32_t s = 0; s < procs_of_.size(); ++s) {
    for (const std::uint32_t p : procs_of_[s]) stmts[p].push_back(s);
  }
  Mhp out;
  for (std::uint32_t p = 0; p < n_; ++p) {
    for (std::uint32_t q = p; q < n_; ++q) {
      if (!parallel_procs(p, q)) continue;
      for (const std::uint32_t s : stmts[p]) {
        for (const std::uint32_t t : stmts[q]) {
          out.pairs.insert({std::min(s, t), std::max(s, t)});
        }
      }
    }
  }
  return out;
}

Mhp mhp_from(const sem::LoweredProgram& prog, const explore::StaticInfo& info) {
  return StaticParallelism(prog, info).stmt_mhp();
}

}  // namespace copar::analysis
