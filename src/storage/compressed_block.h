#ifndef WAVEBATCH_STORAGE_COMPRESSED_BLOCK_H_
#define WAVEBATCH_STORAGE_COMPRESSED_BLOCK_H_

#include <cstdint>
#include <span>
#include <vector>

namespace wavebatch {

/// Encoding knobs for one compressed page (BlockStore builds one page per
/// simulated disk block; see BlockStoreOptions::compress_pages).
struct CompressedPageOptions {
  /// Lossless by default: coefficient values are stored as raw IEEE-754
  /// bits. When true, values are uniform-quantized to `quant_bits` levels
  /// between the page's min and max; the page records the exact maximum
  /// absolute error its decoder can commit, which the engine folds into the
  /// Theorem-1 bound (EvalSession::WorstCaseBound) so every reported bound
  /// stays sound.
  bool quantize = false;
  /// Bits per quantized value, clamped to [1, 32]. 16 bits keeps the
  /// relative error around 2^-16 of the page's value range.
  uint32_t quant_bits = 16;
};

/// One immutable compressed disk page: the nonzero coefficients of one
/// block, keys delta-coded against the page's base key and bit-packed to
/// the minimal fixed width, values either raw IEEE bits (lossless) or
/// bit-packed uniform-quantized levels with a per-page scale/offset.
///
///   header (32 B): base_key, count, key_bits, value_bits, offset, scale
///   key stream:    count × key_bits   (key[i] - base_key, ascending)
///   value stream:  count × value_bits (raw bits, or quantization levels)
///
/// Lookups binary-search the key stream (fixed-width packing gives O(1)
/// random access to the i-th offset), so a point read is O(log count) with
/// no scratch decode buffer. Keys absent from the page decode to an exact
/// 0.0 — the page only stores nonzeros, and "not stored" was exactly zero
/// in the source store — so only present keys can carry quantization error.
///
/// Determinism contract: Decode(i) is a pure function of the encoded bits
/// (offset + level * scale, one multiply + one add), so every read of a key
/// returns the identical double on every host.
class CompressedPage {
 public:
  CompressedPage() = default;

  /// Encodes one page. `keys` must be strictly ascending with `values`
  /// parallel (values need not be nonzero — exact zeros round-trip).
  /// Aborts (WB_CHECK) on unordered keys or empty input.
  static CompressedPage Encode(std::span<const uint64_t> keys,
                               std::span<const double> values,
                               const CompressedPageOptions& options);

  uint32_t entry_count() const { return count_; }

  /// Serialized page size in bytes: 32-byte header + the two bit-packed
  /// streams at byte granularity. This is what one simulated block read of
  /// this page costs (IoStats::bytes_fetched).
  uint64_t size_bytes() const;

  /// Exact max |decoded - original| over the page's entries, measured at
  /// encode time. 0.0 for lossless pages (raw value bits) and for constant
  /// pages (the offset stores the value exactly).
  double max_abs_error() const { return max_abs_error_; }

  bool lossy() const { return max_abs_error_ != 0.0; }

  /// True when `key` is stored on this page.
  bool Contains(uint64_t key) const;

  /// Decoded value at `key`, or `absent` when the page does not store it.
  double ValueOr(uint64_t key, double absent) const;

  /// Appends every (key, decoded value) pair in ascending key order —
  /// round-trip testing and page-level scans.
  void AppendEntries(std::vector<uint64_t>* keys,
                     std::vector<double>* values) const;

 private:
  /// Index of `key` in the packed key stream, or -1 when absent.
  int64_t FindIndex(uint64_t key) const;
  /// Decoded value of the i-th entry.
  double Decode(size_t index) const;

  uint64_t base_key_ = 0;
  uint32_t count_ = 0;
  /// Bit width of the packed key offsets (key - base_key).
  uint32_t key_bits_ = 0;
  /// 64 = raw IEEE bits; < 64 = quantization level width; 0 = constant page
  /// (every value equals offset_, no value stream at all).
  uint32_t value_bits_ = 64;
  /// Quantized decode: value = offset_ + level * scale_.
  double offset_ = 0.0;
  double scale_ = 0.0;
  double max_abs_error_ = 0.0;
  std::vector<uint64_t> key_words_;
  std::vector<uint64_t> value_words_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_COMPRESSED_BLOCK_H_
