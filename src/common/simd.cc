#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define XCLEAN_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define XCLEAN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace xclean::simd {

namespace {

Level Detect() {
#if defined(XCLEAN_SIMD_X86)
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return Level::kSse42;
#endif
  return Level::kScalar;
#elif defined(XCLEAN_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

Level InitialLevel() {
  if (ForceScalarFromEnv()) return Level::kScalar;
  return DetectedLevel();
}

std::atomic<Level>& ActiveSlot() {
  static std::atomic<Level> active{InitialLevel()};
  return active;
}

// --- scalar twins ---------------------------------------------------------

const char* DecodeVarint32One(const char* p, const char* end, uint32_t* out) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift < 64 && p < end; shift += 7) {
    uint8_t byte = static_cast<uint8_t>(*p++);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (result > 0xFFFFFFFFull) return nullptr;
      *out = static_cast<uint32_t>(result);
      return p;
    }
  }
  return nullptr;
}

const char* DecodeVarint32GroupScalar(const char* p, const char* end,
                                      uint32_t* out, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    p = DecodeVarint32One(p, end, out + i);
    if (p == nullptr) return nullptr;
  }
  return p;
}

// --- x86-64 tiers ---------------------------------------------------------

#if defined(XCLEAN_SIMD_X86)

__attribute__((target("sse4.2"))) const char* DecodeVarint32GroupSse42(
    const char* p, const char* end, uint32_t* out, size_t count) {
  // Fast path: when the next 8 stream bytes all lack the continuation bit,
  // they are 8 complete one-byte varints; widen u8 -> u32 in two steps.
  // The 16-byte load over-reads past the 8 consumed bytes, so require 16
  // readable bytes and leave the tail to the scalar decoder.
  while (count >= 8 && end - p >= 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const int cont = _mm_movemask_epi8(bytes);
    if ((cont & 0xFF) != 0) {
      p = DecodeVarint32One(p, end, out);
      if (p == nullptr) return nullptr;
      ++out;
      --count;
      continue;
    }
    const __m128i lo = _mm_cvtepu8_epi32(bytes);
    const __m128i hi = _mm_cvtepu8_epi32(_mm_srli_si128(bytes, 4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), hi);
    out += 8;
    p += 8;
    count -= 8;
  }
  return DecodeVarint32GroupScalar(p, end, out, count);
}

__attribute__((target("avx2"))) const char* DecodeVarint32GroupAvx2(
    const char* p, const char* end, uint32_t* out, size_t count) {
  // 16 one-byte varints per step (32-byte load, low half consumed).
  while (count >= 16 && end - p >= 32) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const int cont = _mm256_movemask_epi8(bytes);
    if ((cont & 0xFFFF) != 0) {
      p = DecodeVarint32One(p, end, out);
      if (p == nullptr) return nullptr;
      ++out;
      --count;
      continue;
    }
    const __m128i low16 = _mm256_castsi256_si128(bytes);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_cvtepu8_epi32(low16));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                        _mm256_cvtepu8_epi32(_mm_srli_si128(low16, 8)));
    out += 16;
    p += 16;
    count -= 16;
  }
  return DecodeVarint32GroupSse42(p, end, out, count);
}

#endif  // XCLEAN_SIMD_X86

// --- aarch64 (NEON) tier --------------------------------------------------

#if defined(XCLEAN_SIMD_NEON)

const char* DecodeVarint32GroupNeon(const char* p, const char* end,
                                    uint32_t* out, size_t count) {
  while (count >= 8 && end - p >= 16) {
    const uint8x16_t bytes =
        vld1q_u8(reinterpret_cast<const uint8_t*>(p));
    const uint8x8_t low = vget_low_u8(bytes);
    // Any continuation bit in the first 8 bytes -> scalar-decode one.
    if (vmaxv_u8(vand_u8(low, vdup_n_u8(0x80))) != 0) {
      p = DecodeVarint32One(p, end, out);
      if (p == nullptr) return nullptr;
      ++out;
      --count;
      continue;
    }
    const uint16x8_t w16 = vmovl_u8(low);
    vst1q_u32(out, vmovl_u16(vget_low_u16(w16)));
    vst1q_u32(out + 4, vmovl_u16(vget_high_u16(w16)));
    out += 8;
    p += 8;
    count -= 8;
  }
  return DecodeVarint32GroupScalar(p, end, out, count);
}

#endif  // XCLEAN_SIMD_NEON

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse42:
      return "sse4.2";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level detected = Detect();
  return detected;
}

Level ActiveLevel() {
  return ActiveSlot().load(std::memory_order_relaxed);
}

bool ForceScalarFromEnv() {
  static const bool force = [] {
    const char* v = std::getenv("XCLEAN_FORCE_SCALAR");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return force;
}

ScopedLevel::ScopedLevel(Level level) : previous_(ActiveLevel()) {
  if (level > DetectedLevel()) level = DetectedLevel();
  ActiveSlot().store(level, std::memory_order_relaxed);
}

ScopedLevel::~ScopedLevel() {
  ActiveSlot().store(previous_, std::memory_order_relaxed);
}

const char* DecodeVarint32Group(Level level, const char* p, const char* end,
                                uint32_t* out, size_t count) {
#if defined(XCLEAN_SIMD_X86)
  if (level == Level::kAvx2) {
    return DecodeVarint32GroupAvx2(p, end, out, count);
  }
  if (level == Level::kSse42) {
    return DecodeVarint32GroupSse42(p, end, out, count);
  }
#elif defined(XCLEAN_SIMD_NEON)
  if (level == Level::kNeon) return DecodeVarint32GroupNeon(p, end, out, count);
#else
  (void)level;
#endif
  return DecodeVarint32GroupScalar(p, end, out, count);
}

}  // namespace xclean::simd
