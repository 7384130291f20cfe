#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace vlacnn::sim {

namespace detail {
/// `bytes` of fresh anonymous zero pages (mmap); throws std::bad_alloc.
void* map_zero_pages(std::size_t bytes);
/// Returns pages from map_zero_pages to the OS.
void unmap_pages(void* p, std::size_t bytes);
}  // namespace detail

/// Fixed-size array of trivially copyable `T` in anonymous pages mapped
/// straight from the OS instead of taken from malloc. Every element starts
/// as all-zero bytes, and the host backs only the pages that get written,
/// so a 256 MB L2's tag array costs what a run touches. Releasing one also
/// leaves malloc alone: glibc raises its dynamic mmap threshold when a
/// mid-sized malloc'd block is freed, which keeps the process's later,
/// unrelated allocations in the heap and its resident set larger after a
/// simulation.
template <typename T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PageArray holds trivially copyable elements");

 public:
  PageArray() = default;
  explicit PageArray(std::size_t n) {
    if (n == 0) return;
    data_ = static_cast<T*>(detail::map_zero_pages(n * sizeof(T)));
    size_ = n;
  }
  ~PageArray() { release(); }

  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;
  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageArray& operator=(PageArray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void release() {
    if (data_ != nullptr) detail::unmap_pages(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace vlacnn::sim
