#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "sim/page_array.hpp"

namespace vlacnn::sim {

/// AddressMap::translate's per-thread memo: the two host intervals a thread
/// translated most recently. Each interval [host_lo, host_lo + bytes)
/// translates by adding `delta` (mod 2^64); both are valid while the map's
/// generation equals `generation`.
struct TranslationMemo {
  struct Interval {
    std::uint64_t host_lo = 0;
    std::uint64_t bytes = 0;  // 0: empty
    std::uint64_t delta = 0;
  };
  std::uint64_t generation = 0;  // never a live generation
  Interval recent[2];            // [0] = most recent
};

/// Translates host pointers into a stable simulated physical address space.
///
/// Host heap addresses differ across runs (ASLR), which would make cache
/// set-index mapping — and therefore simulated miss rates — nondeterministic.
/// Every simulation-visible buffer registers its range here and is assigned
/// a sequential simulated base address, so cache behaviour is bit-identical
/// across runs given the same allocation order.
///
/// Unregistered pointers (e.g. small stack temporaries used by kernels) are
/// mapped into a dedicated deterministic "scratch" region keyed by their
/// first-seen order, which keeps them from aliasing registered buffers.
class AddressMap {
 public:
  static AddressMap& instance() {
    static AddressMap map;
    return map;
  }

  /// Registers [host, host+bytes) and returns the simulated base address.
  std::uint64_t register_range(const void* host, std::uint64_t bytes);

  /// Removes a registration (called from buffer destructors).
  void unregister_range(const void* host);

  /// Translates a host pointer to its simulated address.
  ///
  /// Each thread remembers the last two host intervals it translated (a
  /// registered range, or a scratch line, each clipped to where the answer
  /// is the same for every address in it; two, because kernels alternate
  /// between a scalar operand and a vector stream) together with the map's
  /// generation; a translation inside either interval is answered without
  /// the mutex. register_range, unregister_range and reset bump the
  /// generation, which invalidates every thread's memo.
  std::uint64_t translate(const void* host) {
    const auto addr = reinterpret_cast<std::uint64_t>(host);
    const TranslationMemo& m = memo_;
    if (m.generation == generation_.load(std::memory_order_acquire))
      for (const TranslationMemo::Interval& i : m.recent)
        if (addr - i.host_lo < i.bytes) return addr + i.delta;
    return translate_locked(addr);
  }

  /// Drops all registrations and resets the bump allocator. Intended for
  /// test isolation only.
  void reset();

  /// Number of live registered ranges (for tests).
  std::size_t live_ranges();

 private:
  AddressMap() = default;

  struct Range {
    std::uint64_t host_base;
    std::uint64_t bytes;
    std::uint64_t sim_base;
  };

  /// Host line -> simulated line address, assigned in first-seen order.
  /// Open addressing with linear probing over a power-of-two PageArray
  /// (zeroed pages, outside malloc); a slot's key is the host line number
  /// (address >> 6) + 1, so 0 marks an empty slot.
  class ScratchTable {
   public:
    /// Returns the simulated address of `line`, giving it `next` (and
    /// setting `*inserted`) on first sight.
    std::uint64_t find_or_insert(std::uint64_t line, std::uint64_t next,
                                 bool* inserted);
    void clear();

   private:
    struct Slot {
      std::uint64_t key;  // host line + 1; 0 = empty
      std::uint64_t sim;
    };
    /// Home slot of `key`: the top bits of its Fibonacci hash.
    [[nodiscard]] std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    void grow();

    PageArray<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;  // 64 - log2(slots_.size())
  };

  std::uint64_t translate_locked(std::uint64_t addr);
  /// Makes [lo, hi) -> +delta the calling thread's most recent interval.
  void remember(std::uint64_t lo, std::uint64_t hi, std::uint64_t delta);
  /// Called with mu_ held after any change to the registrations.
  void bump_generation() {
    generation_.store(generation_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
  }

  std::mutex mu_;
  std::atomic<std::uint64_t> generation_{1};
  static inline thread_local TranslationMemo memo_{};
  std::map<std::uint64_t, Range> by_host_base_;  // keyed by host base address
  ScratchTable scratch_;                         // host line -> sim addr
  std::uint64_t next_base_ = 0x1000;            // skip simulated page zero
  std::uint64_t next_scratch_ = 0x4000'0000'0000ULL;
};

/// RAII registration of a host buffer with the global AddressMap.
class RegisteredRange {
 public:
  RegisteredRange() = default;
  RegisteredRange(const void* host, std::uint64_t bytes) : host_(host) {
    if (host != nullptr && bytes != 0)
      AddressMap::instance().register_range(host, bytes);
    else
      host_ = nullptr;
  }
  ~RegisteredRange() {
    if (host_ != nullptr) AddressMap::instance().unregister_range(host_);
  }
  RegisteredRange(const RegisteredRange&) = delete;
  RegisteredRange& operator=(const RegisteredRange&) = delete;
  RegisteredRange(RegisteredRange&& other) noexcept : host_(other.host_) {
    other.host_ = nullptr;
  }
  RegisteredRange& operator=(RegisteredRange&& other) noexcept {
    if (this != &other) {
      if (host_ != nullptr) AddressMap::instance().unregister_range(host_);
      host_ = other.host_;
      other.host_ = nullptr;
    }
    return *this;
  }

 private:
  const void* host_ = nullptr;
};

}  // namespace vlacnn::sim
