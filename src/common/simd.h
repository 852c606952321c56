#ifndef XCLEAN_COMMON_SIMD_H_
#define XCLEAN_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace xclean::simd {

/// Instruction-set capability tiers for the hot-path kernels. Every kernel
/// has a portable scalar implementation that is always compiled and always
/// selectable; the vector tiers are picked at runtime from CPUID (x86-64)
/// or unconditionally (NEON is baseline on aarch64). The dispatch contract
/// is strict: for identical inputs, every tier produces bit-identical
/// outputs (edit distances, decoded postings, cursor positions, hashes) —
/// the `kernels`-labelled differential tests pin this.
enum class Level : uint8_t {
  kScalar = 0,
  kSse42 = 1,  // x86-64: SSE4.2 (implies SSE4.1 widening loads)
  kAvx2 = 2,   // x86-64: AVX2
  kNeon = 3,   // aarch64: Advanced SIMD (baseline)
};

/// Human-readable tier name ("scalar", "sse4.2", "avx2", "neon").
const char* LevelName(Level level);

/// Best tier the running CPU supports, ignoring any override. Computed
/// once per process.
Level DetectedLevel();

/// Tier the kernels dispatch on: DetectedLevel() unless the
/// XCLEAN_FORCE_SCALAR environment variable is set (to anything but "0"),
/// or a ScopedLevel override is active. One relaxed atomic load.
Level ActiveLevel();

/// True when XCLEAN_FORCE_SCALAR demotes the process to the scalar tier —
/// the CI `kernels-scalar` leg runs the full suite this way so the
/// fallback path cannot rot on machines without AVX2/NEON.
bool ForceScalarFromEnv();

/// RAII override of ActiveLevel() for differential tests and scalar-vs-
/// vector benchmarks. Levels above DetectedLevel() are clamped. Not
/// thread-safe against concurrent kernel dispatch by design: tests and
/// benches install it before spawning work.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();

  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level previous_;
};

// --- Kernel primitives ----------------------------------------------------
//
// Shared low-level routines the per-module kernels dispatch to. Each takes
// the tier explicitly so callers resolve ActiveLevel() once per operation,
// and each has the scalar twin inlined as its `level == kScalar` branch.

/// Decodes `count` LEB128 varint32 values from [p, end) into out[0..count).
/// Returns the position past the last varint, or nullptr on truncation /
/// overlong encoding / 32-bit overflow — exactly the scalar codec's
/// contract. The vector tiers accelerate runs of one-byte varints (the
/// dominant case for posting deltas) by widening 8 or 16 bytes at a time;
/// multi-byte varints fall through to the scalar decoder mid-stream.
const char* DecodeVarint32Group(Level level, const char* p, const char* end,
                                uint32_t* out, size_t count);

}  // namespace xclean::simd

#endif  // XCLEAN_COMMON_SIMD_H_
