#include "sim/page_array.hpp"

#include <sys/mman.h>

#include <new>

namespace vlacnn::sim::detail {

void* map_zero_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) { munmap(p, bytes); }

}  // namespace vlacnn::sim::detail
