// SHA-256 (FIPS 180-4), from scratch. Streaming interface plus one-shot
// helpers. This is the hash behind the paper's Integrity Core hash trees.
//
// Two compression datapaths produce identical digests: the portable scalar
// rounds (always built) and SHA-NI hardware compression (crypto/
// accel_x86.cpp, selected via the runtime backend dispatch when the CPU has
// the extension). Whole-block runs go through compress_blocks() so the
// hardware path amortizes its state repacking across the run.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>

#include "crypto/backend.hpp"

namespace secbus::crypto {

inline constexpr std::size_t kSha256DigestBytes = 32;
inline constexpr std::size_t kSha256BlockBytes = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestBytes>;

// The compression datapath a newly constructed context uses.
[[nodiscard]] inline ShaImpl default_sha_impl() noexcept {
  return active_backend().sha_impl;
}

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;

  // Selects the compression datapath (default: the active backend's
  // choice). Selecting kShaNi on a machine without the extension is the
  // caller's bug — check sha_impl_supported first.
  void set_impl(ShaImpl impl) noexcept { impl_ = impl; }
  [[nodiscard]] ShaImpl impl() const noexcept { return impl_; }
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  // Finalizes and returns the digest; the context must be reset() before
  // reuse afterwards.
  [[nodiscard]] Sha256Digest finalize() noexcept;

  // One-shot digest of a byte span.
  [[nodiscard]] static Sha256Digest digest(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest digest(std::string_view text) noexcept;

  // One-shot digest of the concatenation of `parts` on the given datapath
  // (default: the active backend's). For short messages (up to 247 bytes)
  // the message and its FIPS 180-4 padding are assembled in one stack
  // buffer and compressed in a single batched call — the hash-tree
  // leaf/parent shape — skipping the streaming path's buffering and
  // separate finalization; longer inputs fall back to the streaming path.
  // Identical output to update()+finalize().
  [[nodiscard]] static Sha256Digest digest_parts(
      std::initializer_list<std::span<const std::uint8_t>> parts) noexcept;
  [[nodiscard]] static Sha256Digest digest_parts(
      std::initializer_list<std::span<const std::uint8_t>> parts,
      ShaImpl impl) noexcept;

 private:
  // Compresses `nblocks` consecutive 64-byte blocks into state_, dispatching
  // on impl_; the single-block process_block is the nblocks==1 shorthand.
  void compress_blocks(const std::uint8_t* blocks, std::size_t nblocks) noexcept;
  void process_block(const std::uint8_t block[kSha256BlockBytes]) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kSha256BlockBytes> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  ShaImpl impl_ = default_sha_impl();
};

}  // namespace secbus::crypto
