// Tests for the static analysis suite (src/analysis/): every example and
// serving workload must analyze clean, and every injected fault — skewed
// collective sequence, mismatched signature, rendezvous cycle, forged
// overlapping-slot plan, illegal in-place adoption, a strided kernel writing
// an operand's slot or reading past one, shape skew, missing attributes,
// broken regions — must come back as a typed diagnostic, never a crash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyze.h"
#include "src/analysis/collective_checker.h"
#include "src/analysis/memory_checker.h"
#include "src/api/partir.h"
#include "src/exec/device_program.h"
#include "src/exec/memory_planner.h"
#include "src/ir/builder.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace partir {
namespace {

using analysis::AnalysisReport;
using analysis::CollectiveEvent;
using analysis::DeviceTrace;
using analysis::Severity;
using serving::AllServeWorkloads;
using serving::ServeWorkload;

// ---- Trace-level fault injection (the detector takes explicit traces
// ---- precisely so tests can skew them) ----

CollectiveEvent Event(int index, int64_t site, int64_t group_size,
                      const std::string& signature) {
  CollectiveEvent event;
  event.index = index;
  event.site = site;
  event.group_size = group_size;
  event.signature = signature;
  event.location = "site " + std::to_string(site);
  return event;
}

TEST(CollectiveCheckerTest, IdenticalTracesAreClean) {
  std::vector<DeviceTrace> traces(2);
  for (int64_t d = 0; d < 2; ++d) {
    traces[d].device = d;
    traces[d].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8"),
                        Event(1, 1, 2, "all_gather[B] numel=8")};
  }
  AnalysisReport report;
  CheckCollectiveTraces(traces, report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(CollectiveCheckerTest, SignatureMismatchIsDetected) {
  std::vector<DeviceTrace> traces(2);
  traces[0].device = 0;
  traces[0].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8")};
  traces[1].device = 1;
  traces[1].events = {Event(0, 0, 2, "all_reduce[B] max numel=8")};
  AnalysisReport report;
  CheckCollectiveTraces(traces, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("collective-mismatch")) << report.ToString();
}

TEST(CollectiveCheckerTest, SkewedSequenceMissingArrivalIsDeadlock) {
  // Device 1's trace lost its second collective: site 1 waits forever.
  std::vector<DeviceTrace> traces(2);
  traces[0].device = 0;
  traces[0].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8"),
                      Event(1, 1, 2, "all_gather[B] numel=8")};
  traces[1].device = 1;
  traces[1].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8")};
  AnalysisReport report;
  CheckCollectiveTraces(traces, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("collective-deadlock")) << report.ToString();
}

TEST(CollectiveCheckerTest, DuplicateArrivalIsDeadlock) {
  std::vector<DeviceTrace> traces(2);
  traces[0].device = 0;
  traces[0].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8"),
                      Event(1, 0, 2, "all_reduce[B] sum numel=8")};
  traces[1].device = 1;
  traces[1].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8")};
  AnalysisReport report;
  CheckCollectiveTraces(traces, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("collective-deadlock")) << report.ToString();
}

TEST(CollectiveCheckerTest, RendezvousCycleIsDeadlock) {
  // Every site sees the right devices the right number of times, but the
  // devices visit the two sites in opposite orders: a circular wait.
  std::vector<DeviceTrace> traces(2);
  traces[0].device = 0;
  traces[0].events = {Event(0, 0, 2, "all_reduce[B] sum numel=8"),
                      Event(1, 1, 2, "all_reduce[B] sum numel=8")};
  traces[1].device = 1;
  traces[1].events = {Event(0, 1, 2, "all_reduce[B] sum numel=8"),
                      Event(1, 0, 2, "all_reduce[B] sum numel=8")};
  AnalysisReport report;
  CheckCollectiveTraces(traces, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("collective-deadlock")) << report.ToString();
  // The cycle diagnostic names a witness path through the sites.
  bool has_cycle_note = false;
  for (const analysis::Diagnostic& diag : report.diagnostics) {
    has_cycle_note |= !diag.notes.empty();
  }
  EXPECT_TRUE(has_cycle_note) << report.ToString();
}

// ---- Memory-plan fault injection ----

Executable PartitionedChain() {
  Program program("chain");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 8}), "w1");
  Value* w2 = program.AddInput(TensorType({8, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  (void)x;
  return program
      .Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, Mesh({{"B", 4}}))
      .value();
}

// The executable's cached exec_program may key another clone's module, so
// pair the checker with a program compiled from this very module instance.
std::shared_ptr<const exec::DeviceProgram> CompiledProgram(
    const Executable& exe) {
  return exec::CompileDeviceProgram(exe.spmd()).value();
}

TEST(MemoryCheckerTest, RealPlanVerifiesClean) {
  Executable exe = PartitionedChain();
  std::shared_ptr<const exec::DeviceProgram> program = CompiledProgram(exe);
  const Func& main = *exe.spmd().module->funcs().front();
  AnalysisReport report;
  CheckMemoryPlan(main, program->plan, report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(MemoryCheckerTest, ForgedOverlappingSlotsAreFlagged) {
  Executable exe = PartitionedChain();
  std::shared_ptr<const exec::DeviceProgram> program = CompiledProgram(exe);
  const Func& main = *exe.spmd().module->funcs().front();
  exec::MemoryPlan forged = program->plan;

  // Two same-size function arguments are live over the whole program; force
  // them into one slot and the plan is unsound.
  int first = -1, second = -1;
  for (int i = 0; second == -1 && i < static_cast<int>(forged.values.size());
       ++i) {
    const exec::ValuePlan& a = forged.values[i];
    if (a.def != -1) continue;
    for (int j = i + 1; j < static_cast<int>(forged.values.size()); ++j) {
      const exec::ValuePlan& b = forged.values[j];
      if (b.def != -1) continue;
      if (a.numel == b.numel && a.slot != b.slot) {
        first = i;
        second = j;
        break;
      }
    }
  }
  ASSERT_NE(second, -1) << "chain program lost its twin replicated weights";
  forged.values[second].slot = forged.values[first].slot;

  AnalysisReport report;
  CheckMemoryPlan(main, forged, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("memory-plan")) << report.ToString();
}

TEST(MemoryCheckerTest, IllegalInPlaceIsFlagged) {
  Executable exe = PartitionedChain();
  std::shared_ptr<const exec::DeviceProgram> program = CompiledProgram(exe);
  const Func& main = *exe.spmd().module->funcs().front();
  exec::MemoryPlan forged = program->plan;
  // An argument has no defining instruction; claiming it adopted an operand
  // buffer in place is nonsense the checker must reject.
  ASSERT_FALSE(forged.values.empty());
  ASSERT_EQ(forged.values[0].def, -1);
  forged.values[0].in_place = true;
  AnalysisReport report;
  CheckMemoryPlan(main, forged, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("memory-plan")) << report.ToString();
}

TEST(MemoryCheckerTest, DiagnosticsNameAValueByItsDefiningOp) {
  // OpBuilder leaves results unnamed, so a diagnostic locates an op-defined
  // value by the position and kind of its op.
  Executable exe = PartitionedChain();
  std::shared_ptr<const exec::DeviceProgram> program = CompiledProgram(exe);
  const Func& main = *exe.spmd().module->funcs().front();
  exec::MemoryPlan forged = program->plan;
  exec::ValuePlan* moved = nullptr;
  for (exec::ValuePlan& vp : forged.values) {
    if (vp.value->def() != nullptr) {
      moved = &vp;
      break;
    }
  }
  ASSERT_NE(moved, nullptr);
  moved->slot = 999;
  const Operation* def = moved->value->def();
  int index = 0;
  while (main.body().ops()[index].get() != def) ++index;

  AnalysisReport report;
  CheckMemoryPlan(main, forged, report);
  const std::string text = report.ToString();
  EXPECT_NE(text.find(StrCat("op ", index, " (", OpKindName(def->kind()),
                             ") result ", moved->value->result_index(),
                             ": arena slot 999 out of bounds")),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find('%'), std::string::npos) << text;
}

// ---- Strided-kernel invariants of the compiled stream ----

// The first top-level dot of `program`, which must have a strided kernel.
exec::Instruction& FirstDot(exec::DeviceProgram& program) {
  for (exec::Instruction& inst : program.instructions) {
    if (inst.kind == OpKind::kDot) {
      EXPECT_NE(inst.strided, nullptr) << "dot without a strided kernel";
      return inst;
    }
  }
  ADD_FAILURE() << "chain program has no dot";
  return program.instructions.front();
}

TEST(MemoryCheckerTest, StridedResultInAnOperandSlotIsFlagged) {
  Executable exe = PartitionedChain();
  exec::DeviceProgram forged = *CompiledProgram(exe);
  {
    AnalysisReport report;
    CheckDeviceProgram(exe.spmd(), forged, report);
    ASSERT_TRUE(report.clean()) << report.ToString();
  }
  // The dot's kernel would read lhs while overwriting it.
  exec::Instruction& dot = FirstDot(forged);
  dot.result_slots[0] = dot.operand_slots[0];
  AnalysisReport report;
  CheckDeviceProgram(exe.spmd(), forged, report);
  EXPECT_TRUE(report.HasChecker("exec-program"));
  EXPECT_NE(report.ToString().find("overwrite its input while reading it"),
            std::string::npos)
      << report.ToString();
}

TEST(MemoryCheckerTest, StridedViewPastItsSlotIsFlagged) {
  Executable exe = PartitionedChain();
  exec::DeviceProgram forged = *CompiledProgram(exe);
  // One more contraction step than the operands hold.
  exec::Instruction& dot = FirstDot(forged);
  auto kernel = std::make_shared<exec::StridedKernel>(*dot.strided);
  kernel->contract.dims.back().size += 1;
  dot.strided = kernel;
  AnalysisReport report;
  CheckDeviceProgram(exe.spmd(), forged, report);
  EXPECT_GT(report.errors(), 0);
  EXPECT_NE(report.ToString().find("strided view reaches elements"),
            std::string::npos)
      << report.ToString();
}

// ---- The verifier stage gates the other checkers ----

TEST(VerifierStageTest, ForgedCollectiveShapeSkewIsDetected) {
  // A hand-forged all_gather whose declared result kept the *local* shape
  // (it must grow by the gathered axis), and an all_slice whose dim is not
  // divisible by the slicing axis.
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({8, 4}), "x");
  Value* y = func->body().AddArg(TensorType({7, 4}), "y");

  auto gather = std::make_unique<Operation>(
      OpKind::kAllGather, std::vector<Value*>{x},
      std::vector<Type>{Type(TensorType({8, 4}))});  // should be {16, 4}
  gather->attrs().Set("axes_per_dim",
                      Attr(AxesPerDim{{"B"}, {}}));
  Operation* gather_op = func->body().Append(std::move(gather));

  auto slice = std::make_unique<Operation>(
      OpKind::kAllSlice, std::vector<Value*>{y},
      std::vector<Type>{Type(TensorType({3, 4}))});  // 7 is not divisible
  slice->attrs().Set("axes_per_dim", Attr(AxesPerDim{{"B"}, {}}));
  Operation* slice_op = func->body().Append(std::move(slice));

  OpBuilder builder(&func->body());
  builder.Return({gather_op->result(), slice_op->result()});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated, replicated};
  spmd.output_shardings = {replicated, replicated};

  AnalysisReport report = analysis::AnalyzeSpmd(spmd);
  EXPECT_GE(report.errors(), 2) << report.ToString();
  EXPECT_TRUE(report.HasChecker("ir-verify")) << report.ToString();
}

TEST(VerifierStageTest, MissingCollectiveAttributesAreErrors) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  auto reduce = std::make_unique<Operation>(
      OpKind::kAllReduce, std::vector<Value*>{x},
      std::vector<Type>{Type(TensorType({4, 4}))});
  Operation* reduce_op = func->body().Append(std::move(reduce));
  OpBuilder builder(&func->body());
  builder.Return({reduce_op->result()});

  AnalysisReport report = analysis::AnalyzeModule(module);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("ir-verify")) << report.ToString();
}

TEST(VerifierStageTest, VerifierErrorsSkipTheLaterCheckers) {
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  // A loop whose body was never populated: no yield, no values.
  Operation* loop = builder.Loop("B", 2, "tile", 0, TensorType({4, 4}));
  builder.Return({loop->result()});

  AnalysisReport report = analysis::AnalyzeSpmd(spmd);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.HasChecker("ir-verify")) << report.ToString();
  // Only the verifier ran; lint and the collective/memory checkers were
  // skipped (their conclusions would be meaningless over broken structure).
  ASSERT_EQ(report.checkers_run.size(), 1u) << report.ToString();
  EXPECT_EQ(report.checkers_run[0], "verify");
}

/** A module whose op 1 is a dot that lost every attribute. */
void BuildAttributelessDot(Func* func) {
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  Value* y = builder.Neg(x);
  Operation* dot = func->body().Append(std::make_unique<Operation>(
      OpKind::kDot, std::vector<Value*>{y, y},
      std::vector<Type>{Type(TensorType({4, 4}))}));
  builder.Return({dot->result()});
}

TEST(VerifierStageTest, AttributelessDotIsATypedErrorNamingTheOp) {
  // Traced and lowered alike: the dot's missing attributes are an
  // "ir-verify" error located at "op 1 (dot)", never an abort.
  Module module;
  BuildAttributelessDot(module.AddFunc("main"));
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  BuildAttributelessDot(spmd.module->AddFunc("main"));
  for (const AnalysisReport& report :
       {analysis::AnalyzeModule(module), analysis::AnalyzeSpmd(spmd)}) {
    ASSERT_GT(report.errors(), 0) << report.ToString();
    const analysis::Diagnostic& diag = report.diagnostics.front();
    EXPECT_EQ(diag.checker_id, "ir-verify");
    EXPECT_EQ(diag.location, "op 1 (dot)") << report.ToString();
    EXPECT_NE(diag.message.find("lhs_contract"), std::string::npos)
        << diag.message;
    EXPECT_EQ(report.ToString().find("'%"), std::string::npos)
        << report.ToString();
  }
}

TEST(LintTest, WarningsNameOpsByIndexAndKind) {
  // The second op of the body is dead: lint names it "op 1 (exp)".
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4}), "x");
  OpBuilder builder(&func->body());
  Value* used = builder.Neg(x);
  builder.Exp(x);
  builder.Return({used});
  AnalysisReport report = analysis::AnalyzeModule(module);
  EXPECT_EQ(report.errors(), 0) << report.ToString();
  ASSERT_EQ(report.warnings(), 1) << report.ToString();
  EXPECT_EQ(report.diagnostics[0].checker_id, "dead-value");
  EXPECT_EQ(report.diagnostics[0].location, "op 1 (exp)");
}

// ---- Redundant-collective lint over boundary-realization sequences ----

/** Appends a collective op with an axes_per_dim attribute. */
Operation* AppendAxesPerDimCollective(Func* func, OpKind kind, Value* operand,
                                      std::vector<int64_t> result_dims,
                                      AxesPerDim axes_per_dim) {
  auto op = std::make_unique<Operation>(
      kind, std::vector<Value*>{operand},
      std::vector<Type>{Type(TensorType(std::move(result_dims)))});
  op->attrs().Set("axes_per_dim", Attr(std::move(axes_per_dim)));
  if (kind == OpKind::kReduceScatter) {
    op->attrs().Set("reduction", Attr(std::string("sum")));
  }
  return func->body().Append(std::move(op));
}

TEST(LintTest, GatherSliceRoundTripIsFlagged) {
  // all_slice(all_gather(x)) with the same axes_per_dim: the redundant
  // data motion fuse-gather-slice exists to remove. A survivor must come
  // back as a redundant-collective warning, not silence.
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  Operation* gather = AppendAxesPerDimCollective(
      func, OpKind::kAllGather, x, {8, 4}, AxesPerDim{{"B"}, {}});
  Operation* slice = AppendAxesPerDimCollective(
      func, OpKind::kAllSlice, gather->result(), {4, 4},
      AxesPerDim{{"B"}, {}});
  OpBuilder builder(&func->body());
  builder.Return({slice->result()});
  spmd.input_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};

  AnalysisReport report = analysis::AnalyzeSpmd(spmd);
  EXPECT_EQ(report.errors(), 0) << report.ToString();
  bool flagged = false;
  for (const analysis::Diagnostic& diag : report.diagnostics) {
    if (diag.checker_id == "redundant-collective" &&
        diag.message.find("round-trip") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << report.ToString();
}

TEST(LintTest, ReduceScatterOfReplicatedIsFlagged) {
  // reduce_scatter of an already all_reduced value: every device holds the
  // full sum, so the reduce_scatter re-reduces identical copies (a scaling
  // bug, the double-reduction hazard of the boundary-scatter path).
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  auto reduce = std::make_unique<Operation>(
      OpKind::kAllReduce, std::vector<Value*>{x},
      std::vector<Type>{Type(TensorType({4, 4}))});
  reduce->attrs().Set("axes", Attr(std::vector<std::string>{"B"}));
  reduce->attrs().Set("reduction", Attr(std::string("sum")));
  Operation* reduce_op = func->body().Append(std::move(reduce));
  Operation* rs = AppendAxesPerDimCollective(
      func, OpKind::kReduceScatter, reduce_op->result(), {2, 4},
      AxesPerDim{{"B"}, {}});
  OpBuilder builder(&func->body());
  builder.Return({rs->result()});
  spmd.input_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};

  AnalysisReport report = analysis::AnalyzeSpmd(spmd);
  EXPECT_EQ(report.errors(), 0) << report.ToString();
  bool flagged = false;
  for (const analysis::Diagnostic& diag : report.diagnostics) {
    if (diag.checker_id == "redundant-collective" &&
        diag.message.find("re-reduces") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << report.ToString();
}

TEST(VerifierStageTest, MalformedAxesPerDimIsReported) {
  // The boundary-realization paths emit all_gather / reduce_scatter
  // directly, so a malformed axes_per_dim must produce an explicit
  // diagnostic (not a silent no-opinion that also disables the
  // divisibility check downstream).
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  Value* y = func->body().AddArg(TensorType({4, 4}), "y");
  // Unknown mesh axis on dim 0.
  Operation* bad_axis = AppendAxesPerDimCollective(
      func, OpKind::kAllGather, x, {8, 4}, AxesPerDim{{"Z"}, {}});
  // axes_per_dim rank disagrees with the operand rank.
  Operation* bad_rank = AppendAxesPerDimCollective(
      func, OpKind::kAllGather, y, {8, 4}, AxesPerDim{{"B"}});
  OpBuilder builder(&func->body());
  builder.Return({bad_axis->result(), bad_rank->result()});

  AnalysisReport report = analysis::AnalyzeSpmd(spmd);
  EXPECT_GE(report.errors(), 2) << report.ToString();
  EXPECT_TRUE(report.HasChecker("ir-verify")) << report.ToString();
}

// ---- Every example workload analyzes clean ----

PartitionOptions WithAnalysis() {
  PartitionOptions options;
  options.analyze = true;
  return options;
}

void ExpectAnalyzesClean(const Executable& exe, const std::string& label) {
  AnalysisReport report = exe.Analyze();
  EXPECT_TRUE(report.clean()) << label << ":\n" << report.ToString();
  EXPECT_GE(report.checkers_run.size(), 4u) << label;
}

TEST(AnalysisWorkloadsTest, QuickstartChainBpMpZ3) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  (void)x;
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  Executable exe =
      program
          .Partition({ManualPartition{"BP", {{"x", 0}}, "B"},
                      ManualPartition{"MP", {{"w1", 1}}, "M"},
                      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                     Mesh({{"B", 4}, {"M", 2}}), WithAnalysis())
          .value();
  ExpectAnalyzesClean(exe, "quickstart");
  // The pipeline pass recorded its counts for pipeline_stats() and benches.
  EXPECT_GE(exe.pipeline_stats().analysis_checkers, 4);
  EXPECT_EQ(exe.pipeline_stats().analysis_errors, 0);
  EXPECT_FALSE(exe.analysis_report().checkers_run.empty());
  EXPECT_NE(exe.pipeline_stats().Find("static-analysis"), nullptr);
}

TransformerConfig SmallTransformer() {
  TransformerConfig config;
  config.num_layers = 1;
  config.d_model = 16;
  config.num_heads = 2;
  config.head_dim = 8;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  return config;
}

TEST(AnalysisWorkloadsTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Executable exe =
      program
          .Partition({schedules::TransformerBP(), schedules::TransformerMP()},
                     Mesh({{"batch", 2}, {"model", 2}}), WithAnalysis())
          .value();
  ExpectAnalyzesClean(exe, "transformer training");
}

TEST(AnalysisWorkloadsTest, TransformerEmbBoundaryRealization) {
  // The boundary-realized standalone-EMB lowering (operand gathers at
  // normalization statistics, gradient-path reduce_scatters) must not trip
  // any checker: no gather/slice round-trips, no double reductions, clean
  // shapes through the new AG/RS sequences.
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Executable exe = program
                       .Partition({schedules::TransformerEMB()},
                                  Mesh({{"batch", 2}, {"model", 2}}),
                                  WithAnalysis())
                       .value();
  ExpectAnalyzesClean(exe, "transformer EMB boundary realization");
}

TEST(AnalysisWorkloadsTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  Executable exe = program
                       .Partition({schedules::InferenceBP()},
                                  Mesh({{"batch", 4}}), WithAnalysis())
                       .value();
  ExpectAnalyzesClean(exe, "transformer inference");
}

TEST(AnalysisWorkloadsTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  Executable exe = program
                       .Partition({schedules::GnsES()}, Mesh({{"batch", 4}}),
                                  WithAnalysis())
                       .value();
  ExpectAnalyzesClean(exe, "gns edge sharding");
}

TEST(AnalysisWorkloadsTest, AutomaticPartitioning) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 8}), "w1");
  Value* w2 = program.AddInput(TensorType({8, 8}), "w2");
  (void)x;
  (void)w1;
  (void)w2;
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Executable exe =
      program.Partition({automatic}, Mesh({{"B", 4}}), WithAnalysis())
          .value();
  ExpectAnalyzesClean(exe, "automatic");
}

// ---- Every serving workload analyzes clean ----

TEST(AnalysisWorkloadsTest, ServingWorkloadsAnalyzeClean) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    Program program = Program::Capture(workload.build, 4);
    StatusOr<Executable> exe =
        program.Partition(workload.schedule, workload.mesh, WithAnalysis());
    if (!exe.ok()) {
      exe = program.Partition({}, workload.mesh, WithAnalysis());
    }
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    ExpectAnalyzesClean(*exe, workload.name);
  }
}

// ---- Persistence: the report survives SaveResult / load ----

TEST(AnalysisPersistTest, ReportRoundTripsThroughSaveResult) {
  Executable exe = PartitionedChain();
  std::string path = ::testing::TempDir() + "/analysis_result.bin";
  ASSERT_TRUE(exe.SaveResult(path).ok());

  StatusOr<std::string> bytes = persist::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  StatusOr<std::string> payload = persist::DecodeEntry(
      bytes.value(), persist::PayloadKind::kPartitionResult,
      "partir-partition-result");
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(payload.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->analysis.checkers_run,
            exe.analysis_report().checkers_run);
  EXPECT_EQ(restored->analysis.diagnostics.size(),
            exe.analysis_report().diagnostics.size());
  EXPECT_EQ(restored->pipeline.analysis_checkers,
            exe.pipeline_stats().analysis_checkers);
  EXPECT_EQ(restored->pipeline.analysis_errors,
            exe.pipeline_stats().analysis_errors);
  EXPECT_EQ(restored->pipeline.analysis_warnings,
            exe.pipeline_stats().analysis_warnings);

  // A loaded result analyzes exactly as clean as the live one.
  AnalysisReport report = analysis::AnalyzeSpmd(restored->spmd);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---- The pipeline pass fails on an erroring module (never silently) ----

TEST(AnalysisPipelineTest, AnalyzeOffSkipsThePass) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  (void)x;
  (void)w;
  program.Return({program.builder().MatMul(x, w)});
  PartitionOptions options;
  options.analyze = false;
  Executable exe = program
                       .Partition({ManualPartition{"BP", {{"x", 0}}, "B"}},
                                  Mesh({{"B", 4}}), options)
                       .value();
  EXPECT_EQ(exe.pipeline_stats().Find("static-analysis"), nullptr);
  EXPECT_EQ(exe.pipeline_stats().analysis_checkers, 0);
  EXPECT_TRUE(exe.analysis_report().checkers_run.empty());
  // Analyze() still works on demand.
  EXPECT_TRUE(exe.Analyze().ok());
}

}  // namespace
}  // namespace partir
