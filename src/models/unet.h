/**
 * @file
 * Diffusion-style U-Net (the paper's UNet benchmark, Section 7.1): 9 "down"
 * residual convolution blocks, a 2-block middle with a 16-head spatial
 * attention layer, and 12 "up" residual blocks consuming skip connections.
 *
 * Substitution versus the paper's model: spatial down/up-sampling is
 * omitted — channel widths vary instead — because PartIR deliberately does
 * not partition spatial dims (paper Section 8), so resolution changes do
 * not affect partitioning behaviour; channel/batch structure is what the
 * BP/Z2/Z3/MP schedules exercise.
 */
#ifndef PARTIR_MODELS_UNET_H_
#define PARTIR_MODELS_UNET_H_

#include <string>

#include "src/autodiff/grad.h"
#include "src/ir/ir.h"

namespace partir {

struct UNetConfig {
  int64_t batch = 8;
  int64_t height = 4;
  int64_t width = 4;
  int64_t in_channels = 4;
  int64_t base_channels = 8;   // doubled twice along the "down" path
  int64_t num_down = 9;
  int64_t num_up = 12;
  int64_t attention_heads = 16;

  /** Larger configuration used by the benchmark harness. */
  static UNetConfig Bench() {
    UNetConfig config;
    config.batch = 16;
    config.height = 8;
    config.width = 8;
    config.in_channels = 8;
    config.base_channels = 32;
    return config;
  }

  /** Parameter tensors: in-conv(2) + 7 per residual block
   *  (num_down + 2 mid + num_up blocks) + attention(5) + out(3). */
  int64_t NumParams() const { return 2 + 7 * (num_down + 2 + num_up) + 5 + 3; }
};

/**
 * Builds the denoising training loss:
 *   args  = [params..., image, noise_target]
 *   result = scalar MSE loss.
 */
Func* BuildUNetLoss(Module& module, const UNetConfig& config,
                    const std::string& name = "unet_loss");

/** Full training step (loss + grads + Adam). */
Func* BuildUNetTrainingStep(Module& module, const UNetConfig& config,
                            const std::string& name = "unet_step");

}  // namespace partir

#endif  // PARTIR_MODELS_UNET_H_
