// Runtime-dispatched crypto backend selection.
//
// The simulator's crypto substrate (AES-128, SHA-256) has three flavors:
//   * accel    — x86 AES-NI block rounds and SHA-NI compression, compiled
//                into one dedicated TU with the -maes/-msha instruction-set
//                flags (the rest of the binary stays plain, so it still runs
//                on hardware without the extensions);
//   * portable — the constexpr T-table AES and scalar SHA-256 rounds; always
//                built, always tested, the reference for CI runners without
//                the extensions;
//   * scalar   — the byte-wise FIPS-197 textbook AES (plus the same scalar
//                SHA-256), kept as the readable reference implementation.
//
// Selection happens once per process, on first use:
//   1. SECBUS_CRYPTO_BACKEND=portable|scalar|accel overrides everything
//      (requesting accel on unsupported hardware falls back to portable
//      with a one-time stderr warning);
//   2. else CPUID: accel when AES-NI or SHA extensions are present and the
//      accel TU was compiled with intrinsics, portable otherwise.
//
// Every backend produces bit-identical blocks, digests and therefore
// end-to-end SocResults; crypto_test_backend_diff enforces this
// differentially and the CI matrix runs the whole suite per backend.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace secbus::crypto {

enum class BackendKind : std::uint8_t { kPortable, kScalar, kAccel };

// Per-primitive datapaths. A backend maps to one of each; contexts
// (Aes128, Sha256) capture their default at construction and tests can
// override per context for differential validation.
enum class AesImpl : std::uint8_t { kTTable, kScalar, kAesni };
enum class ShaImpl : std::uint8_t { kPortable, kShaNi };

// x86 feature bits relevant to the accel paths, detected once via CPUID.
// All false on non-x86 builds.
struct CpuFeatures {
  bool aesni = false;   // AES-NI (CPUID.1:ECX.AES)
  bool pclmul = false;  // PCLMULQDQ (carryless multiply)
  bool ssse3 = false;
  bool sse41 = false;
  bool sha_ni = false;  // SHA extensions (CPUID.7:EBX.SHA)
  static const CpuFeatures& detect() noexcept;
};

struct Backend {
  BackendKind kind = BackendKind::kPortable;
  AesImpl aes_impl = AesImpl::kTTable;
  ShaImpl sha_impl = ShaImpl::kPortable;
  // Value of SECBUS_CRYPTO_BACKEND honored for this selection; empty when
  // the backend was auto-selected (CPUID / build option).
  std::string env_override;
};

// The process-wide selection (computed once, then immutable except through
// the test hook below). New Aes128/Sha256 contexts default to its impls.
const Backend& active_backend() noexcept;

// Maps a requested kind onto what this host can actually run: accel
// degrades per primitive (AES-NI without SHA-NI is common on older x86).
[[nodiscard]] Backend resolve_backend(BackendKind kind) noexcept;

// Whether a given datapath can execute on this build + CPU.
[[nodiscard]] bool aes_impl_supported(AesImpl impl) noexcept;
[[nodiscard]] bool sha_impl_supported(ShaImpl impl) noexcept;

[[nodiscard]] const char* to_string(BackendKind kind) noexcept;
[[nodiscard]] const char* to_string(AesImpl impl) noexcept;
[[nodiscard]] const char* to_string(ShaImpl impl) noexcept;
bool parse_backend(std::string_view text, BackendKind& out) noexcept;

// Human-readable report of detected features, the active selection and the
// env override in effect (secbus_cli crypto-info; CI logs it so every run
// records which datapath it exercised).
[[nodiscard]] std::string backend_report();

// Test hook: replaces the active backend for this process (resolved against
// host capabilities). New contexts pick up the change; existing contexts
// keep the impl they captured. Not thread-safe — single-threaded tests only.
void set_backend_for_testing(BackendKind kind) noexcept;

// Entry points of the accelerated TU (crypto/accel_x86.cpp). They exist on
// every platform so the dispatch layer always links; calling one when
// compiled() is false or the CPU lacks the extension aborts, so only the
// dispatch layer (which checks support) may call them.
namespace accel {

// True when the TU was built with the x86 crypto instruction-set flags.
[[nodiscard]] bool compiled() noexcept;

// AES-128 over the FIPS-197 byte-form key schedule (11 x 16 bytes).
// Pipelines 4 independent blocks per iteration; in/out may alias only
// exactly (same pointer), not overlap.
void aes_encrypt_blocks(const std::uint8_t* round_keys, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t nblocks) noexcept;
// Expects the equivalent-inverse-cipher schedule (round keys reversed,
// inner ones through InvMixColumns) in byte form, as Aes128 precomputes.
void aes_decrypt_blocks(const std::uint8_t* inv_round_keys,
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t nblocks) noexcept;

// SHA-256 compression of `nblocks` consecutive 64-byte blocks into `state`
// (host-order words, same convention as the portable path).
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept;

}  // namespace accel

}  // namespace secbus::crypto
