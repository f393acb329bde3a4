// copar-cli's replaceable global allocation functions, defined as the
// standard specifies them: malloc, retry through the new-handler, else throw
// std::bad_alloc. Defining them makes `main` see exhaustion as
// std::bad_alloc in every build. AddressSanitizer's own operator new reports
// exhaustion as a fatal error and never throws; its malloc returns null under
// ASAN_OPTIONS=allocator_may_return_null=1, which these turn into the throw.
// The functions live in their own file so that no caller inlines a free()
// of memory it got from operator new.
#include <cstddef>
#include <cstdlib>
#include <new>

void* operator new(std::size_t n) {
  for (;;) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
