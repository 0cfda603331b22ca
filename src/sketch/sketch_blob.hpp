// The sketch blob: the one byte form of a Distinct-Count Sketch. The agent
// seals each epoch into it, the wire and the leaf relay carry it, and the
// journal, checkpoints and query snapshots store it (docs/DISTRIBUTED.md,
// "Sketch blob format").
//
//   u32 magic "DCCS", u8 version 3
//   params: i32 r, u32 s, i32 key_bits, i32 max_level, f64 epsilon,
//           f64 sample_target_fraction, u8 collision_correction, u64 seed
//   u64 level mask: the allocated levels
//   per level in the mask, ascending:
//     u8  width code c: each counter of the level takes 1 << c bytes
//     u64 x ceil(r*s / 64): bitmap of the live buckets, bucket table*s + b
//         at bit (i % 64) of word i / 64
//     per live bucket, ascending: its key_bits + 1 counters, each zigzag
//         encoded, little-endian in 1 << c bytes
//   u32 CRC-32 of every byte above
//
// A live bucket is one with a nonzero counter. The form is canonical, so a
// sketch has exactly one blob and a reader rejects any other: a width code
// above 3, a bitmap bit at or past r*s, an all-zero live bucket, a width
// wider than the level's largest counter needs (a level with no live
// bucket has code 0), a mask bit above max_level, or trailing bytes. Most
// of an epoch's buckets are empty and its counters small, so the blob is a
// small fraction of the r*s*(key_bits+1) x 8 B a level holds in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "sketch/dcs_params.hpp"

namespace dcs {

/// A blob written by an older, incompatible format version: state from
/// before the compact blob (journals, checkpoints, query snapshots) must be
/// drained by the build that wrote it, not read.
class StaleFormatError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

/// One level as it sits in a blob, validated.
struct BlobLevel {
  int level = 0;
  int width_bytes = 1;
  std::vector<std::uint64_t> live;  ///< the live-bucket bitmap
  /// The live buckets' counters, packed; a view into the blob bytes or
  /// into the reader's scratch buffer.
  std::string_view payload;
};

/// A blob parsed and validated whole — header, params, every level's
/// canonical form and the CRC footer — before any sketch is touched, so a
/// merge from it cannot fail halfway. Borrows the bytes it was parsed from.
class SketchBlob {
 public:
  /// Throws SerializeError (StaleFormatError for an older version).
  static SketchBlob parse(std::string_view bytes);

  const DcsParams& params() const noexcept { return params_; }
  const std::vector<BlobLevel>& levels() const noexcept { return levels_; }

 private:
  DcsParams params_;
  std::vector<BlobLevel> levels_;
};

namespace blob {

/// Write the header, params and level mask, the CRC running from the
/// header on. The levels follow through a LevelPacker, then the footer
/// (write_crc_footer).
void write_prefix(BinaryWriter& writer, const DcsParams& params,
                  std::uint64_t levels);
/// Read and check what write_prefix wrote; returns the level mask.
std::uint64_t read_prefix(BinaryReader& reader, DcsParams& params);
/// Read one level of `params` and check its canonical form. A stream
/// reader copies the payload into `scratch`, which must outlive the view.
BlobLevel read_level(BinaryReader& reader, const DcsParams& params, int level,
                     std::string& scratch);
/// Add the level's live counters into `counters`, the level's
/// counters_per_level() int64 counters.
void add_level(const BlobLevel& level, const DcsParams& params,
               std::int64_t* counters);
/// Add one live bucket's key_bits + 1 counters, packed at `width_bytes`
/// bytes each from `packed`, into its int64 signature: add_level for one
/// bucket, for a merge that classifies each bucket around its add
/// (TrackingDcs) and so walks the bitmap itself.
void add_bucket(const char* packed, int width_bytes, const DcsParams& params,
                std::int64_t* signature);

/// Collects one level's live buckets, then writes the level.
class LevelPacker {
 public:
  explicit LevelPacker(const DcsParams& params);
  /// Offer bucket `index`'s key_bits + 1 counters, in ascending index
  /// order. An all-zero signature is not live and is dropped.
  void add(std::size_t index, const std::int64_t* signature);
  /// Append the level (width code, bitmap, packed counters) and start the
  /// next one empty.
  void write(BinaryWriter& writer);

 private:
  std::size_t width_;  ///< counters per signature
  std::vector<std::uint64_t> live_;
  std::vector<std::int64_t> counters_;
  std::uint64_t zigzag_or_ = 0;
};

}  // namespace blob

}  // namespace dcs
