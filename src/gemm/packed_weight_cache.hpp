#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "sim/address_map.hpp"

namespace vlacnn::gemm {

/// Storage format of a pack-once weight image. Precision is a pure
/// storage-format question once weights are pack-once/run-many: the reduced
/// formats shrink the resident A-panel stream (the dominant DRAM consumer of
/// weight-bound layers) by 2x / 4x, and the microkernel widens back to fp32
/// on the A load — activations and accumulation stay fp32 throughout (the
/// popfloat cast-on-load / accumulate-in-fp32 idiom).
enum class PackFormat : std::uint8_t {
  F32 = 0,            ///< bytewise the run-time pack_a_panel layout
  Bf16 = 1,           ///< round-to-nearest-even bf16; widened by a bit shift
  Int8PerChannel = 2, ///< symmetric int8, one scale per output channel (row)
  SparseF32 = 3,      ///< block-sparse fp32: bitmap + compacted value stream
  SparseBf16 = 4,     ///< block-sparse bf16 values, same index structure
};

inline constexpr std::size_t kNumPackFormats = 5;

const char* to_string(PackFormat f);

[[nodiscard]] constexpr bool pack_format_sparse(PackFormat f) {
  return f == PackFormat::SparseF32 || f == PackFormat::SparseBf16;
}

/// Bytes per packed element (for sparse formats, per *stored* element).
[[nodiscard]] constexpr std::size_t pack_elem_bytes(PackFormat f) {
  switch (f) {
    case PackFormat::F32:
    case PackFormat::SparseF32:
      return 4;
    case PackFormat::Bf16:
    case PackFormat::SparseBf16:
      return 2;
    case PackFormat::Int8PerChannel:
      return 1;
  }
  return 4;
}

/// Block-sparsity granule: kSparseBlockM output channels (rows of the GEMM A
/// matrix) by kSparseBlockK reduction columns. The row granule matches the
/// microkernel's accumulator-row grouping (every power-of-two unroll the
/// tuner emits is a multiple of 4), the column granule gives the skip test a
/// 16-iteration FMA run to amortize against — the popsparse block-CSR shape
/// mapped onto the BLIS panel walk.
inline constexpr int kSparseBlockM = 4;
inline constexpr int kSparseBlockK = 16;

/// Geometry of the block grid a sparse image is pruned/packed on. Blocks are
/// aligned to the k-panel grid (panel pk covers columns [pk·block_k, +kc)),
/// so a block never straddles the panels the blocked GEMM sweeps; every
/// panel gets a fixed capacity of `chunk_cap` column chunks (trailing chunks
/// of a short last panel simply stay empty) so the linear block index is
/// closed-form.
struct SparseGrid {
  int m = 0, k = 0, block_k = 0;
  int num_pk = 0;     ///< k-panels
  int num_rb = 0;     ///< row blocks (granule kSparseBlockM)
  int chunk_cap = 0;  ///< column-chunk capacity per panel

  SparseGrid(int m_in, int k_in, int block_k_in)
      : m(m_in),
        k(k_in),
        block_k(block_k_in),
        num_pk((k_in + block_k_in - 1) / block_k_in),
        num_rb((m_in + kSparseBlockM - 1) / kSparseBlockM),
        chunk_cap((std::min(block_k_in, k_in) + kSparseBlockK - 1) /
                  kSparseBlockK) {}

  [[nodiscard]] int kc(int pk) const { return std::min(block_k, k - pk * block_k); }
  [[nodiscard]] int chunks(int pk) const {
    return (kc(pk) + kSparseBlockK - 1) / kSparseBlockK;
  }
  [[nodiscard]] int rows(int rb) const {
    return std::min(kSparseBlockM, m - rb * kSparseBlockM);
  }
  [[nodiscard]] int cols(int pk, int cb) const {
    return std::min(kSparseBlockK, kc(pk) - cb * kSparseBlockK);
  }
  /// Linear index of block (pk, rb, cb) into a mask / the bitmap order.
  [[nodiscard]] std::size_t index(int pk, int rb, int cb) const {
    return (static_cast<std::size_t>(pk) * num_rb + rb) * chunk_cap + cb;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(num_pk) * num_rb * chunk_cap;
  }
  [[nodiscard]] std::size_t segments() const {
    return static_cast<std::size_t>(num_pk) * num_rb;
  }
  /// Blocks that actually cover matrix data (excludes the padding slots of a
  /// short last panel).
  [[nodiscard]] std::size_t valid_blocks() const {
    std::size_t n = 0;
    for (int pk = 0; pk < num_pk; ++pk)
      n += static_cast<std::size_t>(chunks(pk)) * num_rb;
    return n;
  }
};

/// Magnitude-based block pruning: keeps the ceil(density_pm/1000 · valid)
/// blocks with the largest L1 mass, ties broken by lower linear index so the
/// mask is deterministic. Returns one byte per SparseGrid slot (1 = keep);
/// padding slots are always 0. density_pm is density in per-mille (500 =
/// keep half the blocks).
[[nodiscard]] std::vector<std::uint8_t> prune_block_mask(
    const float* weights, int m, int k, int block_k, int density_pm);

/// Zeroes every weight belonging to a pruned block, in place — the dense
/// reference a sparse image must match bit-for-bit.
void apply_block_mask(float* weights, int m, int k, int block_k,
                      const std::vector<std::uint8_t>& mask);

/// fp32 -> bf16 with round-to-nearest-even (the standard truncation-plus-
/// rounding-bias formula). Values exactly representable in bf16 round-trip
/// bit-exactly through vla::f32_from_bf16.
[[nodiscard]] inline std::uint16_t bf16_from_f32(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint32_t lsb = (bits >> 16) & 1u;
  return static_cast<std::uint16_t>((bits + 0x7FFFu + lsb) >> 16);
}

/// Symmetric per-channel int8 scale: amax/127, or 1.0 for an all-zero
/// channel (whose quantized values are all exactly 0 either way — the scale
/// only needs to be finite and non-zero so dequantization stays well-defined).
[[nodiscard]] float int8_channel_scale(const float* row, int k);

/// Immutable pack-once image of one weight matrix A (M×K, row-major,
/// lda == K) in the exact BLIS panel layout Gemm6::pack_a_panel produces at
/// run time: the K dimension is split into blocks of `block_k`; block k1
/// holds all M rows of columns [k1, k1+kc) as consecutive mc×kc row-major
/// panels (stride kc). Because panel i1 of block k1 simply starts at row i1,
/// the whole image is the concatenation over k-blocks of an M×kc row-major
/// slab, and
///
///   panel(i1, k1) = data() + elem_bytes·(M·k1 + i1·kc),   a_stride = kc
///
/// addresses any (i1, k1) panel directly. For PackFormat::F32 the values are
/// bytewise what the run-time pack stage would have written, so the
/// micro-kernel consuming a resident image is bit-identical to the packing
/// hot path it replaces. The reduced-precision formats keep the identical
/// panel geometry with 2-byte (bf16) or 1-byte (int8) elements; an int8
/// image additionally carries one dequantization scale per output channel
/// (row), computed here at pack time over the whole row — NOT per k-block,
/// so the quantized value of a weight never depends on the blocking sweep
/// that reads it.
///
/// The sparse formats store the SAME values the dense formats would, minus
/// the blocks a magnitude prune at `density_pm` dropped: a per-(panel,
/// row-block) segment holds a uint64 occupancy bitmap (bit cb = chunk cb
/// kept, so block_k ≤ 64·kSparseBlockK) plus the element offset of the
/// segment's first kept block in one compacted value stream. Kept blocks
/// are stored consecutively in ascending cb order, each as a rows×cols
/// row-major tile, so the skip-aware microkernel walks k strictly ascending
/// — the float additions it performs are exactly the non-zero subsequence
/// of the dense k-walk, which is why fp32-sparse output is bit-identical to
/// the dense kernel over apply_block_mask-pruned weights.
class PackedWeights {
 public:
  PackedWeights(const float* weights, int m, int k, int block_k,
                PackFormat format = PackFormat::F32, int density_pm = 1000);

  [[nodiscard]] PackFormat format() const { return format_; }
  [[nodiscard]] std::size_t elem_bytes() const {
    return pack_elem_bytes(format_);
  }
  /// The packed image, element type per format().
  [[nodiscard]] const void* raw() const { return data_.data(); }
  /// fp32 view of an F32 image (the historical accessor; refuses other
  /// formats so a float* can never silently alias quantized bytes).
  [[nodiscard]] const float* data() const;
  /// Image bytes (panel data only — what the DRAM watch ranges cover).
  [[nodiscard]] std::size_t data_bytes() const { return data_.size(); }
  /// Per-channel dequantization scales (Int8PerChannel only, length m()).
  [[nodiscard]] const float* scales() const {
    return scales_.empty() ? nullptr : scales_.data();
  }
  [[nodiscard]] std::size_t scales_bytes() const {
    return scales_.size() * sizeof(float);
  }
  /// Sparse index structure (bitmaps then offsets, one uint64 each per
  /// segment); nullptr/0 for dense formats. The hot path reads this, so the
  /// DRAM watch ranges cover it alongside the value stream.
  [[nodiscard]] const void* sparse_meta() const {
    return sparse_meta_.size() == 0 ? nullptr : sparse_meta_.data();
  }
  [[nodiscard]] std::size_t sparse_meta_bytes() const {
    return sparse_meta_.size() * sizeof(std::uint64_t);
  }
  /// Total resident footprint: panel data plus the scale vector plus any
  /// sparse index structure. This is what the cache budget accounts.
  [[nodiscard]] std::size_t bytes() const {
    return data_bytes() + scales_bytes() + sparse_meta_bytes();
  }
  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int block_k() const { return block_k_; }
  [[nodiscard]] bool sparse() const { return pack_format_sparse(format_); }
  /// Pruning density in per-mille (1000 for dense formats).
  [[nodiscard]] int density_pm() const { return density_pm_; }

  /// Panel for rows [i1, i1+mc) of k-block starting at column k1 whose
  /// width is kc = min(block_k, K - k1); row stride is kc elements.
  [[nodiscard]] const void* panel_raw(int i1, int k1, int kc) const {
    return data_.data() + (static_cast<std::size_t>(m_) * k1 +
                           static_cast<std::size_t>(i1) * kc) *
                              elem_bytes();
  }
  /// fp32 panel of an F32 image (historical accessor; see data()).
  [[nodiscard]] const float* panel(int i1, int k1, int kc) const;

  /// --- Sparse accessors (sparse formats only) ---
  /// Segment index of (row block containing `row`, panel starting at column
  /// `k1`). `row` must be a multiple of kSparseBlockM.
  [[nodiscard]] std::size_t sparse_segment(int row, int k1) const {
    return static_cast<std::size_t>(k1 / block_k_) * num_rb_ +
           row / kSparseBlockM;
  }
  /// Pointer to the segment's occupancy bitmap word (bit cb = column chunk
  /// [k1 + cb·kSparseBlockK, …) kept).
  [[nodiscard]] const std::uint64_t* sparse_bitmap_word(std::size_t seg) const {
    return sparse_meta_.data() + seg;
  }
  /// Pointer to the segment's value-stream element offset word.
  [[nodiscard]] const std::uint64_t* sparse_offset_word(std::size_t seg) const {
    return sparse_meta_.data() + nsegs_ + seg;
  }
  /// First kept block of segment `seg` inside the compacted value stream.
  [[nodiscard]] const void* sparse_values(std::size_t seg) const {
    return data_.data() + sparse_meta_[nsegs_ + seg] * elem_bytes();
  }

 private:
  /// Builds the sparse index + compacted value stream from a prune mask.
  void pack_sparse(const float* weights);

  int m_, k_, block_k_;
  PackFormat format_;
  int density_pm_ = 1000;
  std::size_t num_rb_ = 0, nsegs_ = 0;  ///< sparse grid dims (sparse only)
  AlignedBuffer<std::uint8_t> data_;
  AlignedBuffer<float> scales_;  ///< per-row dequant scales (int8 only)
  /// Sparse index: nsegs_ bitmap words followed by nsegs_ offset words.
  AlignedBuffer<std::uint64_t> sparse_meta_;
  sim::RegisteredRange reg_, scales_reg_, meta_reg_;
};

/// Counters describing what the cache has done so far (snapshot).
struct PackedWeightCacheStats {
  std::uint64_t hits = 0;       ///< find() located a resident image
  std::uint64_t misses = 0;     ///< find() had no image for the key
  std::uint64_t packs = 0;      ///< prepare() packed a new image
  std::uint64_t evictions = 0;  ///< images dropped on a budget shrink
  std::uint64_t rejected = 0;   ///< images larger than the whole budget
  std::uint64_t deferred = 0;   ///< prepare() skips: budget already full
  std::size_t resident_bytes = 0;
  /// Per-format resident byte totals, indexed by PackFormat: mixed-precision
  /// plans share one budget, so the aggregate alone cannot tell which
  /// format's stream is pinning it.
  std::array<std::size_t, kNumPackFormats> resident_bytes_by_format{};
  std::size_t entries = 0;
};

/// Cache of pack-once weight images shared by every per-context Gemm6 a
/// core::ConvolutionEngine installs — the GEMM twin of
/// winograd::WeightCache. Populated during ConvolutionEngine::prepare()
/// (host-side scalar packing, uninstrumented: the paper's protocol excludes
/// weight preparation from inference time, §VII-A) and read-only during
/// forward passes, so any number of worker contexts may consume the same
/// image concurrently.
///
/// Keys are (weights pointer, M, K, block_k, format): the layout depends on
/// the blocking configuration, and — as with the Winograd cache — a recycled
/// heap address from a destroyed network must never alias an entry of a
/// different shape. The format key lets mixed-precision plans keep an fp32
/// and a quantized image of the same weights resident side by side under
/// the one budget. Entries are handed out as shared_ptr, so an image a
/// reader still holds survives its own eviction; the cache keeps at most
/// `budget_bytes` resident (a YOLOv3's 200+ MB of conv weights must not
/// pin memory forever). Admission is prepare-time only and STOPS at the
/// budget: an image that does not fit the remaining budget is skipped
/// without packing (`deferred` — its layers keep the run-time packing
/// path), never admitted by evicting a resident image. prepare(net) runs
/// before every batch, so evict-on-insert would repack the whole rotation
/// of an over-budget layer set on every single batch; first-come residency
/// is stable and churn-free instead. LRU eviction applies when the budget
/// shrinks (set_budget); clear() restarts admission from scratch.
class PackedWeightCache {
 public:
  static constexpr std::size_t kDefaultBudgetBytes = 256ull << 20;

  explicit PackedWeightCache(std::size_t budget_bytes = kDefaultBudgetBytes)
      : budget_(budget_bytes) {}

  /// Packs (or refreshes the LRU stamp of) the image for `weights`; the
  /// prepare step of the serving lifecycle. Returns the image, or nullptr
  /// when it was not retained (larger than the whole budget, or the budget
  /// is already full) — the size check precedes the packing work, so a
  /// skipped prepare() is O(1).
  /// density_pm is the block-pruning density for the sparse formats (part
  /// of the key: sparse50 and sparse25 images of the same weights are
  /// distinct residents); dense formats must pass 1000.
  std::shared_ptr<const PackedWeights> prepare(
      const float* weights, int m, int k, int block_k,
      PackFormat format = PackFormat::F32, int density_pm = 1000);

  /// Hot-path lookup: returns the resident image (bumping its LRU stamp)
  /// or nullptr. Never packs.
  std::shared_ptr<const PackedWeights> find(
      const float* weights, int m, int k, int block_k,
      PackFormat format = PackFormat::F32, int density_pm = 1000);

  /// Lock-free pre-check for the GEMM hot path: false means the cache is
  /// empty and find() cannot possibly hit, so callers skip the mutexed
  /// lookup (and the miss-stat noise) entirely — the common case for
  /// every non-weight-resident policy.
  [[nodiscard]] bool maybe_resident() const {
    return entry_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Drops every resident image (e.g. after mutating weights in tests).
  void clear();

  void set_budget(std::size_t bytes);
  [[nodiscard]] std::size_t budget() const {
    std::lock_guard<std::mutex> lock(mu_);
    return budget_;
  }
  [[nodiscard]] PackedWeightCacheStats stats() const;

  /// Image footprint for admission checks, computed BEFORE packing. For the
  /// sparse formats this is a conservative upper bound (every kept block at
  /// full granule size plus the index words); the post-pack accounting uses
  /// the exact bytes(). Public so benches and tests can price admission the
  /// way the cache does.
  static std::size_t image_bytes(int m, int k, int block_k, PackFormat format,
                                 int density_pm) {
    if (pack_format_sparse(format)) {
      const SparseGrid g(m, k, block_k);
      const std::size_t kept =
          (g.valid_blocks() * static_cast<std::size_t>(density_pm) + 999) /
          1000;
      return kept * kSparseBlockM * kSparseBlockK * pack_elem_bytes(format) +
             2 * g.segments() * sizeof(std::uint64_t);
    }
    std::size_t b = static_cast<std::size_t>(m) * static_cast<std::size_t>(k) *
                    pack_elem_bytes(format);
    if (format == PackFormat::Int8PerChannel)
      b += static_cast<std::size_t>(m) * sizeof(float);  // the scale vector
    return b;
  }

 private:
  using Key = std::tuple<const float*, int, int, int, std::uint8_t, int>;
  struct Entry {
    std::shared_ptr<const PackedWeights> image;
    std::uint64_t last_use = 0;
  };

  /// Accounts `image` in (or out of, delta < 0) the per-format totals.
  /// mu_ held.
  void account(const PackedWeights& image, bool insert);

  /// Evicts LRU entries until the budget holds. mu_ held.
  void enforce_budget();

  mutable std::mutex mu_;
  std::map<Key, Entry> cache_;
  std::atomic<std::size_t> entry_count_{0};  // == cache_.size(), lock-free
  std::size_t budget_;
  std::size_t resident_bytes_ = 0;
  std::array<std::size_t, kNumPackFormats> resident_by_format_{};
  std::uint64_t tick_ = 0;
  PackedWeightCacheStats stats_;
};

}  // namespace vlacnn::gemm
