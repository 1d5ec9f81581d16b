// NEON kernel slot — guarded stub. The dispatch plumbing (level enum,
// table registration, CPU check) is wired for AArch64, but the bodies
// below currently alias the scalar reference; real NEON intrinsics land
// when the project has ARM hardware in CI to verify the bit-exactness
// contract on. Keeping the table registered means MMSOC_SIMD=neon and the
// fuzz suite exercise the dispatch path on ARM builds today.
#if defined(MMSOC_SIMD_NEON) && defined(__ARM_NEON)

#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {

const KernelTable kKernelsNeon = {
    SimdLevel::kNeon,    &sad16_scalar,      &fdct8x8_f32_scalar,
    &idct8x8_f32_scalar, &fdct8x8_q15_scalar, &idct8x8_q15_scalar,
    &quantize64_scalar,  &dequantize64_scalar, &fb_analyze_scalar,
    &fb_synth_scalar,    &sensor_noise_u8_scalar};

}  // namespace mmsoc::dsp::detail

#endif  // MMSOC_SIMD_NEON && __ARM_NEON
