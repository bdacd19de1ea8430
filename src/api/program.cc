#include "src/api/program.h"

#include "src/interp/interpreter.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace partir {

namespace {
/** Embedded key of Program::Save files (the store embeds and verifies the
 *  key, so a partition-cache entry cannot be passed off as a program). */
constexpr char kProgramFileKey[] = "partir-program";
}  // namespace

Program::Program(std::string name)
    : module_(std::make_shared<Module>()),
      func_(module_->AddFunc(std::move(name))), builder_(&func_->body()) {}

Program Program::Capture(const std::function<Func*(Module&)>& build) {
  Program captured((CaptureTag()));
  Func* func = build(*captured.module_);
  PARTIR_CHECK(func != nullptr) << "Program::Capture: builder returned null";
  captured.func_ = func;
  captured.builder_.SetInsertionBlock(&func->body());
  return captured;
}

Program Program::Capture(const std::function<Func*(Module&, int64_t)>& build,
                         int64_t batch) {
  PARTIR_CHECK(batch >= 1) << "Program::Capture: batch must be >= 1";
  Program captured =
      Capture([&](Module& module) { return build(module, batch); });
  captured.batch_builder_ = build;
  return captured;
}

Value* Program::AddInput(TensorType type, const std::string& name) {
  PARTIR_CHECK(!sealed()) << "Program::AddInput after Return()";
  return func_->body().AddArg(std::move(type), name);
}

void Program::Return(std::vector<Value*> values) {
  PARTIR_CHECK(!sealed()) << "Program::Return called twice";
  builder_.Return(std::move(values));
}

bool Program::sealed() const {
  return func_->body().num_ops() > 0 &&
         func_->body().ops().back()->kind() == OpKind::kReturn;
}

uint64_t Program::TraceFingerprint() const {
  return persist::FingerprintFunc(*func_);
}

StatusOr<Executable> Program::Partition(const std::vector<Tactic>& schedule,
                                        const Mesh& mesh,
                                        const PartitionOptions& options) {
  if (!sealed()) {
    return FailedPreconditionError(
        "program '", func_->name(),
        "' is not sealed; call Program::Return before Partition");
  }
  if (mesh.num_axes() == 0) {
    return InvalidArgumentError("cannot partition over an empty mesh");
  }
  PARTIR_ASSIGN_OR_RETURN(
      std::shared_ptr<const PartitionResult> result,
      PartitionThroughCache(*cache_, func_, mesh, schedule, options));
  return Executable(module_, func_, schedule, options, std::move(result),
                    cache_);
}

StatusOr<std::vector<Tensor>> Program::Evaluate(
    const std::vector<Tensor>& inputs) const {
  if (!sealed()) {
    return FailedPreconditionError(
        "program '", func_->name(),
        "' is not sealed; call Program::Return before Evaluate");
  }
  PARTIR_RETURN_IF_ERROR(api_internal::ValidateInputs(*func_, inputs));
  return partir::Evaluate(*func_, inputs);
}

std::vector<Tensor> Program::RandomInputs(uint64_t seed,
                                          float index_modulus) const {
  return MakeRandomInputs(*func_, seed, index_modulus);
}

std::string Program::Print() const { return partir::Print(*func_); }

Status Program::Save(const std::string& path) const {
  return persist::WriteFileAtomic(
      path, persist::EncodeEntry(persist::PayloadKind::kModule,
                                 kProgramFileKey,
                                 persist::SerializeModule(*module_)));
}

StatusOr<Program> Program::Load(const std::string& path) {
  PARTIR_ASSIGN_OR_RETURN(std::string bytes,
                          persist::ReadFileToString(path));
  PARTIR_ASSIGN_OR_RETURN(
      std::string payload,
      persist::DecodeEntry(bytes, persist::PayloadKind::kModule,
                           kProgramFileKey));
  PARTIR_ASSIGN_OR_RETURN(std::unique_ptr<Module> module,
                          persist::DeserializeModule(payload));
  if (module->funcs().empty()) {
    return DataLossError("program file ", path, " holds an empty module");
  }
  std::vector<std::string> diags = Verify(*module);
  if (!diags.empty()) {
    return DataLossError("program file ", path,
                         " does not verify: ", diags.front());
  }
  Program loaded((CaptureTag()));
  loaded.module_ = std::move(module);
  loaded.func_ = loaded.module_->funcs().front().get();
  loaded.builder_.SetInsertionBlock(&loaded.func_->body());
  return loaded;
}

}  // namespace partir
