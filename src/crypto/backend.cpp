#include "crypto/backend.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SECBUS_HAVE_CPUID 1
#endif

namespace secbus::crypto {

namespace {

CpuFeatures detect_features() noexcept {
  CpuFeatures f;
#ifdef SECBUS_HAVE_CPUID
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.pclmul = (ecx & (1u << 1)) != 0;
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    f.aesni = (ecx & (1u << 25)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.sha_ni = (ebx & (1u << 29)) != 0;
  }
#endif
  return f;
}

[[nodiscard]] BackendKind default_kind() noexcept {
  const CpuFeatures& cpu = CpuFeatures::detect();
  const bool any_hw =
      accel::compiled() &&
      (cpu.aesni || (cpu.sha_ni && cpu.ssse3 && cpu.sse41));
  return any_hw ? BackendKind::kAccel : BackendKind::kPortable;
}

Backend select_backend() noexcept {
  const char* env = std::getenv("SECBUS_CRYPTO_BACKEND");
  BackendKind kind = default_kind();
  std::string override_value;
  if (env != nullptr && *env != '\0') {
    BackendKind requested;
    if (!parse_backend(env, requested)) {
      std::fprintf(stderr,
                   "secbus: ignoring SECBUS_CRYPTO_BACKEND='%s' "
                   "(expected portable|scalar|accel)\n",
                   env);
    } else {
      kind = requested;
      override_value = env;
      if (requested == BackendKind::kAccel &&
          resolve_backend(requested).aes_impl != AesImpl::kAesni &&
          resolve_backend(requested).sha_impl != ShaImpl::kShaNi) {
        std::fprintf(stderr,
                     "secbus: SECBUS_CRYPTO_BACKEND=accel but no crypto "
                     "extensions are usable on this build/CPU; running the "
                     "portable datapaths\n");
      }
    }
  }
  Backend backend = resolve_backend(kind);
  backend.env_override = std::move(override_value);
  return backend;
}

Backend& mutable_active_backend() noexcept {
  static Backend backend = select_backend();
  return backend;
}

}  // namespace

const CpuFeatures& CpuFeatures::detect() noexcept {
  static const CpuFeatures features = detect_features();
  return features;
}

Backend resolve_backend(BackendKind kind) noexcept {
  Backend b;
  b.kind = kind;
  switch (kind) {
    case BackendKind::kScalar:
      b.aes_impl = AesImpl::kScalar;
      b.sha_impl = ShaImpl::kPortable;
      break;
    case BackendKind::kAccel:
      // Degrade per primitive: AES-NI without SHA-NI (or vice versa) still
      // accelerates the half the CPU has.
      b.aes_impl = aes_impl_supported(AesImpl::kAesni) ? AesImpl::kAesni
                                                       : AesImpl::kTTable;
      b.sha_impl = sha_impl_supported(ShaImpl::kShaNi) ? ShaImpl::kShaNi
                                                       : ShaImpl::kPortable;
      break;
    case BackendKind::kPortable:
      b.aes_impl = AesImpl::kTTable;
      b.sha_impl = ShaImpl::kPortable;
      break;
  }
  return b;
}

bool aes_impl_supported(AesImpl impl) noexcept {
  if (impl != AesImpl::kAesni) return true;
  return accel::compiled() && CpuFeatures::detect().aesni;
}

bool sha_impl_supported(ShaImpl impl) noexcept {
  if (impl != ShaImpl::kShaNi) return true;
  const CpuFeatures& cpu = CpuFeatures::detect();
  // The SHA-NI message schedule uses SSSE3 shuffles and an SSE4.1 blend;
  // every SHA-capable CPU has both, but check anyway.
  return accel::compiled() && cpu.sha_ni && cpu.ssse3 && cpu.sse41;
}

const Backend& active_backend() noexcept { return mutable_active_backend(); }

void set_backend_for_testing(BackendKind kind) noexcept {
  Backend& active = mutable_active_backend();
  const std::string env = active.env_override;
  active = resolve_backend(kind);
  active.env_override = env;
}

const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kPortable: return "portable";
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kAccel: return "accel";
  }
  return "?";
}

const char* to_string(AesImpl impl) noexcept {
  switch (impl) {
    case AesImpl::kTTable: return "ttable";
    case AesImpl::kScalar: return "scalar";
    case AesImpl::kAesni: return "aes-ni";
  }
  return "?";
}

const char* to_string(ShaImpl impl) noexcept {
  switch (impl) {
    case ShaImpl::kPortable: return "portable";
    case ShaImpl::kShaNi: return "sha-ni";
  }
  return "?";
}

bool parse_backend(std::string_view text, BackendKind& out) noexcept {
  if (text == "portable") {
    out = BackendKind::kPortable;
    return true;
  }
  if (text == "scalar") {
    out = BackendKind::kScalar;
    return true;
  }
  if (text == "accel") {
    out = BackendKind::kAccel;
    return true;
  }
  return false;
}

std::string backend_report() {
  const CpuFeatures& cpu = CpuFeatures::detect();
  const Backend& backend = active_backend();
  const char* env = std::getenv("SECBUS_CRYPTO_BACKEND");
  std::string out;
  out += "cpu features:    ";
  bool any = false;
  const auto add = [&](bool present, const char* name) {
    if (!present) return;
    if (any) out += ' ';
    out += name;
    any = true;
  };
  add(cpu.aesni, "aes-ni");
  add(cpu.pclmul, "pclmul");
  add(cpu.ssse3, "ssse3");
  add(cpu.sse41, "sse4.1");
  add(cpu.sha_ni, "sha-ni");
  if (!any) out += "(none relevant)";
  out += '\n';
  out += "accel compiled:  ";
  out += accel::compiled() ? "yes" : "no (built without x86 crypto flags)";
  out += '\n';
  out += "backend:         ";
  out += to_string(backend.kind);
  out += '\n';
  out += "aes datapath:    ";
  out += to_string(backend.aes_impl);
  out += '\n';
  out += "sha datapath:    ";
  out += to_string(backend.sha_impl);
  out += '\n';
  out += "env override:    ";
  if (env != nullptr && *env != '\0') {
    out += "SECBUS_CRYPTO_BACKEND=";
    out += env;
    if (backend.env_override.empty()) out += " (ignored: unparseable)";
  } else {
    out += "(unset)";
  }
  out += '\n';
  return out;
}

}  // namespace secbus::crypto
