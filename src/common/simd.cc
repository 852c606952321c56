#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

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

size_t CountKeysBelowStride8Scalar(const unsigned char* base, size_t size,
                                   uint32_t target) {
  size_t i = 0;
  for (; i < size; ++i) {
    uint32_t key;
    std::memcpy(&key, base + i * 8, sizeof(key));
    if (key >= target) break;
  }
  return i;
}

uint64_t Key64At(const unsigned char* base, size_t i) {
  uint64_t key;
  std::memcpy(&key, base + i * 16, sizeof(key));
  return key;
}

size_t LowerBoundKey64Stride16Scalar(const unsigned char* base, size_t size,
                                     uint64_t needle) {
  size_t lo = 0, hi = size;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (Key64At(base, mid) < needle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
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

__attribute__((target("sse4.2"))) size_t CountKeysBelowStride8Sse42(
    const unsigned char* base, size_t size, uint32_t target) {
  // Two 8-byte records per 16-byte load; keys sit in the even 32-bit
  // lanes. Unsigned compare via the sign-bit flip trick.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i tgt = _mm_xor_si128(_mm_set1_epi32(static_cast<int>(target)),
                                    bias);
  size_t i = 0;
  while (i + 2 <= size) {
    const __m128i recs =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + i * 8));
    const __m128i keys = _mm_xor_si128(recs, bias);
    // Lane l is all-ones where target > key (key < target); only even
    // lanes hold keys.
    const int mask =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(tgt, keys)));
    if ((mask & 0x1) == 0) return i;
    if ((mask & 0x4) == 0) return i + 1;
    i += 2;
  }
  return i + CountKeysBelowStride8Scalar(base + i * 8, size - i, target);
}

__attribute__((target("avx2"))) size_t CountKeysBelowStride8Avx2(
    const unsigned char* base, size_t size, uint32_t target) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i tgt =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(target)), bias);
  size_t i = 0;
  while (i + 4 <= size) {
    const __m256i recs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i * 8));
    const __m256i keys = _mm256_xor_si256(recs, bias);
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(tgt, keys)));
    // Keys occupy bits 0,2,4,6; compact them and count the all-ones
    // prefix (the array is sorted, so below-target keys are a prefix).
    const unsigned compact = ((mask >> 0) & 1u) | ((mask >> 1) & 2u) |
                             ((mask >> 2) & 4u) | ((mask >> 3) & 8u);
    if (compact != 0xF) {
      unsigned run = 0;
      while (compact & (1u << run)) ++run;
      return i + run;
    }
    i += 4;
  }
  return i + CountKeysBelowStride8Scalar(base + i * 8, size - i, target);
}

__attribute__((target("avx2"))) size_t LowerBoundKey64Stride16Avx2(
    const unsigned char* base, size_t size, uint64_t needle) {
  // Binary-narrow to one vector window, then gather-compare 4 keys per
  // step (stride 16 bytes = scale-8 indices 0,2,4,6) and count the
  // below-needle prefix. Unsigned 64-bit compare via the sign-bit flip.
  size_t lo = 0, hi = size;
  while (hi - lo > 16) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Key64At(base, mid) < needle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i ndl = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(needle)), bias);
  const __m256i idx = _mm256_setr_epi64x(0, 2, 4, 6);
  while (lo + 4 <= hi) {
    const long long* lanes =
        reinterpret_cast<const long long*>(base + lo * 16);
    const __m256i keys =
        _mm256_xor_si256(_mm256_i64gather_epi64(lanes, idx, 8), bias);
    const int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(ndl, keys)));
    if (mask != 0xF) {
      unsigned run = 0;
      while (mask & (1 << run)) ++run;
      return lo + run;
    }
    lo += 4;
  }
  while (lo < hi && Key64At(base, lo) < needle) ++lo;
  return lo;
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

size_t CountKeysBelowStride8Neon(const unsigned char* base, size_t size,
                                 uint32_t target) {
  const uint32x4_t tgt = vdupq_n_u32(target);
  size_t i = 0;
  while (i + 4 <= size) {
    // De-interleave 4 records: val[0] = keys, val[1] = payloads.
    const uint32x4x2_t recs =
        vld2q_u32(reinterpret_cast<const uint32_t*>(base + i * 8));
    const uint32x4_t below = vcltq_u32(recs.val[0], tgt);
    if (vminvq_u32(below) == 0) {
      // Mixed lanes: count the all-ones prefix (keys ascend, so
      // below-target lanes are a prefix).
      uint32_t lanes[4];
      vst1q_u32(lanes, below);
      size_t run = 0;
      while (run < 4 && lanes[run] != 0) ++run;
      return i + run;
    }
    i += 4;
  }
  return i + CountKeysBelowStride8Scalar(base + i * 8, size - i, target);
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

size_t CountKeysBelowStride8(Level level, const void* base, size_t size,
                             uint32_t target) {
  const unsigned char* bytes = static_cast<const unsigned char*>(base);
#if defined(XCLEAN_SIMD_X86)
  if (level == Level::kAvx2) {
    return CountKeysBelowStride8Avx2(bytes, size, target);
  }
  if (level == Level::kSse42) {
    return CountKeysBelowStride8Sse42(bytes, size, target);
  }
#elif defined(XCLEAN_SIMD_NEON)
  if (level == Level::kNeon) {
    return CountKeysBelowStride8Neon(bytes, size, target);
  }
#else
  (void)level;
#endif
  return CountKeysBelowStride8Scalar(bytes, size, target);
}

size_t LowerBoundKey64Stride16(Level level, const void* base, size_t size,
                               uint64_t needle) {
  const unsigned char* bytes = static_cast<const unsigned char*>(base);
#if defined(XCLEAN_SIMD_X86)
  if (level == Level::kAvx2) {
    return LowerBoundKey64Stride16Avx2(bytes, size, needle);
  }
#endif
  (void)level;
  return LowerBoundKey64Stride16Scalar(bytes, size, needle);
}

}  // namespace xclean::simd
