// AES-128 block cipher (FIPS-197), from scratch.
//
// This is the functional model behind the paper's Confidentiality Core: the
// LCF really encrypts external-memory traffic with it, so the attack benches
// observe genuine ciphertext (spoofing/relocation produce real garbage after
// decryption, not simulated flags). The S-box is generated at compile time
// from its algebraic definition (GF(2^8) inverse + affine map), which both
// documents the construction and removes the risk of a mistyped table.
//
// Three interchangeable datapaths produce identical blocks:
//   * kAesni — hardware AES-NI rounds (crypto/accel_x86.cpp), selected by
//     the runtime backend dispatch (crypto/backend.hpp) when the CPU has the
//     extension; batched entry points pipeline 4 blocks per iteration.
//   * kTTable — 32-bit T-table rounds (SubBytes/ShiftRows/MixColumns fused
//     into four 1KB lookups per direction, round keys held as words). This
//     is the portable fast path; the tables are computed constexpr from the
//     same algebraic S-box.
//   * kScalar — the byte-wise FIPS-197 textbook rounds, kept as the readable
//     reference and for differential validation.
// The default follows the process-wide backend (SECBUS_CRYPTO_BACKEND env,
// else CPUID); set_impl() overrides per context. FIPS-197 vectors run against every datapath.
//
// Side-channel caveat: none of the datapaths — including AES-NI, whose key
// schedule here is still computed with table lookups — is hardened against
// timing/cache side channels. That caveat applies to ALL backends; the
// paper's threat model explicitly excludes side-channel attacks
// (Section III.B).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/backend.hpp"

namespace secbus::crypto {

inline constexpr std::size_t kAesBlockBytes = 16;
inline constexpr std::size_t kAes128KeyBytes = 16;
inline constexpr int kAes128Rounds = 10;

using AesBlock = std::array<std::uint8_t, kAesBlockBytes>;
using Aes128Key = std::array<std::uint8_t, kAes128KeyBytes>;

// GF(2^8) helpers exposed for tests (reduction polynomial x^8+x^4+x^3+x+1).
[[nodiscard]] constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t result = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & 1) result ^= a;
    const bool carry = (a & 0x80) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (carry) a ^= 0x1B;
    b >>= 1;
  }
  return result;
}

// Multiplicative inverse in GF(2^8) by exponentiation (a^254); inv(0) = 0.
[[nodiscard]] constexpr std::uint8_t gf_inv(std::uint8_t a) noexcept {
  std::uint8_t result = a;
  // a^254 = ((a^2) * a)^2 ... use square-and-multiply over the fixed exponent.
  std::uint8_t acc = 1;
  std::uint8_t base = a;
  unsigned exp = 254;
  while (exp != 0) {
    if (exp & 1) acc = gf_mul(acc, base);
    base = gf_mul(base, base);
    exp >>= 1;
  }
  result = acc;
  return a == 0 ? 0 : result;
}

namespace detail {

[[nodiscard]] constexpr std::uint8_t sbox_affine(std::uint8_t x) noexcept {
  const std::uint8_t inv = gf_inv(x);
  std::uint8_t out = 0;
  for (int i = 0; i < 8; ++i) {
    const int bit = ((inv >> i) & 1) ^ ((inv >> ((i + 4) % 8)) & 1) ^
                    ((inv >> ((i + 5) % 8)) & 1) ^ ((inv >> ((i + 6) % 8)) & 1) ^
                    ((inv >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1);
    out = static_cast<std::uint8_t>(out | (bit << i));
  }
  return out;
}

[[nodiscard]] constexpr std::array<std::uint8_t, 256> make_sbox() noexcept {
  std::array<std::uint8_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    table[i] = sbox_affine(static_cast<std::uint8_t>(i));
  }
  return table;
}

[[nodiscard]] constexpr std::array<std::uint8_t, 256> make_inv_sbox(
    const std::array<std::uint8_t, 256>& sbox) noexcept {
  std::array<std::uint8_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) table[sbox[i]] = static_cast<std::uint8_t>(i);
  return table;
}

inline constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();
inline constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox(kSbox);

// T-tables: one 32-bit word per S-box output, packing the four MixColumns
// products so a full round is 16 lookups + XORs. Byte order is big-endian
// within the word (row 0 in the top byte), matching the column words the
// block datapath loads with load_be32.
//
//   kTe0[b] = {02*S[b], 01*S[b], 01*S[b], 03*S[b]}   (contribution of row 0)
// and kTe1..3 rotate the coefficient column for rows 1..3. The decryption
// tables fold InvSubBytes and the {0e,0b,0d,09} InvMixColumns matrix the
// same way.
using TTable = std::array<std::uint32_t, 256>;

[[nodiscard]] constexpr std::uint32_t pack_be(std::uint8_t b0, std::uint8_t b1,
                                              std::uint8_t b2,
                                              std::uint8_t b3) noexcept {
  return (static_cast<std::uint32_t>(b0) << 24) |
         (static_cast<std::uint32_t>(b1) << 16) |
         (static_cast<std::uint32_t>(b2) << 8) | b3;
}

[[nodiscard]] constexpr TTable make_enc_ttable(int rotation) noexcept {
  TTable table{};
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    const std::uint8_t coeffs[4] = {gf_mul(s, 0x02), s, s, gf_mul(s, 0x03)};
    // rotation r selects the coefficient column for state row r.
    table[i] = pack_be(coeffs[(0 + 4 - rotation) % 4],
                       coeffs[(1 + 4 - rotation) % 4],
                       coeffs[(2 + 4 - rotation) % 4],
                       coeffs[(3 + 4 - rotation) % 4]);
  }
  return table;
}

[[nodiscard]] constexpr TTable make_dec_ttable(int rotation) noexcept {
  TTable table{};
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint8_t y = kInvSbox[i];
    const std::uint8_t coeffs[4] = {gf_mul(y, 0x0e), gf_mul(y, 0x09),
                                    gf_mul(y, 0x0d), gf_mul(y, 0x0b)};
    table[i] = pack_be(coeffs[(0 + 4 - rotation) % 4],
                       coeffs[(1 + 4 - rotation) % 4],
                       coeffs[(2 + 4 - rotation) % 4],
                       coeffs[(3 + 4 - rotation) % 4]);
  }
  return table;
}

inline constexpr TTable kTe0 = make_enc_ttable(0);
inline constexpr TTable kTe1 = make_enc_ttable(1);
inline constexpr TTable kTe2 = make_enc_ttable(2);
inline constexpr TTable kTe3 = make_enc_ttable(3);
inline constexpr TTable kTd0 = make_dec_ttable(0);
inline constexpr TTable kTd1 = make_dec_ttable(1);
inline constexpr TTable kTd2 = make_dec_ttable(2);
inline constexpr TTable kTd3 = make_dec_ttable(3);

}  // namespace detail

// The datapath a newly constructed context uses: whatever the process-wide
// backend selected (env override > CPUID).
[[nodiscard]] inline AesImpl default_aes_impl() noexcept {
  return active_backend().aes_impl;
}

// AES-128 context: expands the key once; encrypt/decrypt are const and
// reusable across blocks.
class Aes128 {
 public:
  explicit Aes128(const Aes128Key& key) noexcept { rekey(key); }

  // Re-expands with a new key (used by policy reconfiguration).
  void rekey(const Aes128Key& key) noexcept;

  // Selects the block datapath (default: the active backend's choice). All
  // datapaths produce identical blocks; the switch exists so tests can
  // validate the fast paths against the reference. Selecting kAesni on a
  // machine without the extension is the caller's bug (check
  // aes_impl_supported first); the batched entry points would fault.
  void set_impl(AesImpl impl) noexcept { impl_ = impl; }
  [[nodiscard]] AesImpl impl() const noexcept { return impl_; }

  // Single-block ECB primitive operations.
  void encrypt_block(const std::uint8_t in[kAesBlockBytes],
                     std::uint8_t out[kAesBlockBytes]) const noexcept;
  void decrypt_block(const std::uint8_t in[kAesBlockBytes],
                     std::uint8_t out[kAesBlockBytes]) const noexcept;

  // Batched ECB over `nblocks` consecutive 16-byte blocks. On the AES-NI
  // datapath the blocks go through the hardware pipeline 4 at a time (this
  // is what feeds the multi-block CTR keystream); the portable datapaths
  // loop per block. in/out may be the same pointer but must not otherwise
  // overlap.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t nblocks) const noexcept;
  void decrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t nblocks) const noexcept;

  [[nodiscard]] AesBlock encrypt(const AesBlock& in) const noexcept;
  [[nodiscard]] AesBlock decrypt(const AesBlock& in) const noexcept;

  // The expanded key schedule (11 round keys x 16 bytes), exposed for the
  // FIPS-197 key-expansion test vectors.
  [[nodiscard]] std::span<const std::uint8_t> round_keys() const noexcept {
    return {round_keys_.data(), round_keys_.size()};
  }

  // Number of block operations performed since construction/rekey; the
  // Confidentiality Core uses this to charge simulated cycles.
  [[nodiscard]] std::uint64_t block_ops() const noexcept { return block_ops_; }
  void reset_block_ops() noexcept { block_ops_ = 0; }

 private:
  void encrypt_block_scalar(const std::uint8_t in[kAesBlockBytes],
                            std::uint8_t out[kAesBlockBytes]) const noexcept;
  void decrypt_block_scalar(const std::uint8_t in[kAesBlockBytes],
                            std::uint8_t out[kAesBlockBytes]) const noexcept;
  void encrypt_block_ttable(const std::uint8_t in[kAesBlockBytes],
                            std::uint8_t out[kAesBlockBytes]) const noexcept;
  void decrypt_block_ttable(const std::uint8_t in[kAesBlockBytes],
                            std::uint8_t out[kAesBlockBytes]) const noexcept;

  std::array<std::uint8_t, kAesBlockBytes*(kAes128Rounds + 1)> round_keys_{};
  // Word-form key schedules for the T-table path: the FIPS-197 schedule as
  // big-endian words, and the equivalent-inverse-cipher schedule (round keys
  // reversed, inner ones passed through InvMixColumns).
  std::array<std::uint32_t, 4 * (kAes128Rounds + 1)> enc_words_{};
  std::array<std::uint32_t, 4 * (kAes128Rounds + 1)> dec_words_{};
  // Byte form of dec_words_: the equivalent-inverse schedule is exactly the
  // aesdec/aesdeclast key convention, so AES-NI decryption needs no runtime
  // aesimc — just this serialization, done once at rekey.
  std::array<std::uint8_t, kAesBlockBytes*(kAes128Rounds + 1)> dec_bytes_{};
  AesImpl impl_ = default_aes_impl();
  mutable std::uint64_t block_ops_ = 0;
};

}  // namespace secbus::crypto
