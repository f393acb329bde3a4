// A copy-on-write box: a value that is cheap to copy (one shared_ptr) and
// is cloned lazily on the first mutation after a share.
//
// Thread-safety contract (the one the parallel engine relies on): a CowBox
// *value* may be copied and read from many threads concurrently — copying
// only touches the atomic refcount. `mut()` may be called only by a thread
// that exclusively owns the box itself (e.g. the worker that popped the
// owning Configuration from its deque). Under that discipline the
// `use_count() == 1` test is race-free:
//
//   - count == 1: this box holds the only reference, and since no other
//     thread may copy *this box*, no new reference can appear concurrently.
//     Mutating in place is safe.
//   - count > 1: some other box shares the payload (it may even be dropping
//     its reference right now). We never mutate shared payloads; we clone.
//     A stale count can only err toward an unnecessary clone, never toward
//     a shared mutation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

namespace copar::support {

template <class T>
class CowBox {
 public:
  CowBox() : p_(std::make_shared<T>()) {}
  explicit CowBox(T v) : p_(std::make_shared<T>(std::move(v))) {}

  /// Read access. The payload behind `->`/`*` is const: all mutation must
  /// go through mut() so the clone-on-share check cannot be bypassed.
  [[nodiscard]] const T& operator*() const noexcept { return *p_; }
  [[nodiscard]] const T* operator->() const noexcept { return p_.get(); }

  // Container conveniences so read-only call sites (range-for, size checks)
  // keep the syntax of a plain member.
  [[nodiscard]] auto begin() const noexcept { return std::as_const(*p_).begin(); }
  [[nodiscard]] auto end() const noexcept { return std::as_const(*p_).end(); }
  [[nodiscard]] auto size() const noexcept { return p_->size(); }
  [[nodiscard]] bool empty() const noexcept { return p_->empty(); }
  template <class K>
  [[nodiscard]] bool contains(const K& k) const {
    return p_->find(k) != p_->end();
  }

  /// True if another handle shares the payload (mut() would clone it).
  [[nodiscard]] bool shared() const noexcept { return p_.use_count() != 1; }

  /// Mutable access; clones the payload iff it is shared. See the file
  /// header for why the use_count() test is sound.
  [[nodiscard]] T& mut() {
    if (shared()) p_ = std::make_shared<T>(*p_);
    return *p_;
  }

 private:
  std::shared_ptr<T> p_;
};

/// The handles of one COW container (a store, a process table) whose cached
/// digests a mutation cleared since the container was last sealed. A few
/// ids live inline — a transition dirties one process and one or two
/// objects — so noting one never allocates; past that the list only
/// remembers that it overflowed, and draining it visits every handle.
class DirtyIds {
 public:
  void add(std::uint32_t id) noexcept {
    if (n_ < kInline) {
      ids_[n_++] = id;
    } else {
      overflow_ = true;
    }
  }

  /// Calls `f(id)` for each noted id, or for every id below `size` after an
  /// overflow, and empties the list.
  template <class F>
  void drain(std::uint32_t size, F&& f) {
    if (overflow_) {
      for (std::uint32_t id = 0; id < size; ++id) f(id);
    } else {
      for (std::uint32_t k = 0; k < n_; ++k) f(ids_[k]);
    }
    n_ = 0;
    overflow_ = false;
  }

 private:
  static constexpr std::uint32_t kInline = 6;
  std::array<std::uint32_t, kInline> ids_{};
  std::uint32_t n_ = 0;
  bool overflow_ = false;
};

}  // namespace copar::support
