#include "src/pass/pass.h"

#include "src/ir/verifier.h"

namespace partir {

int64_t PipelineState::CurrentOpCount() const {
  if (lowered) return CountOps(*result.spmd.main());
  return CountOps(*ctx.func());
}

std::vector<std::string> PipelineState::VerifyCurrent() const {
  if (lowered) return Verify(*result.spmd.module);
  return Verify(*ctx.func());
}

}  // namespace partir
