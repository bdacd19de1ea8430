// Unit tests for the array-IR substrate: types, the typing rule the builder
// and the verifier share, printing, verification, cloning and DCE.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "src/api/partir.h"
#include "src/ir/builder.h"
#include "src/ir/ir.h"
#include "src/ir/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"

namespace partir {
namespace {

TEST(TensorTypeTest, BasicProperties) {
  TensorType t({256, 8}, DType::kF32);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.NumElements(), 2048);
  EXPECT_EQ(t.ByteSize(), 8192);
  EXPECT_EQ(t.ToString(), "tensor<256x8xf32>");
}

TEST(TensorTypeTest, ScalarType) {
  TensorType t({}, DType::kF32);
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.NumElements(), 1);
}

TEST(TensorTypeTest, Equality) {
  EXPECT_EQ(TensorType({2, 3}), TensorType({2, 3}));
  EXPECT_NE(TensorType({2, 3}), TensorType({3, 2}));
  EXPECT_NE(TensorType({2, 3}, DType::kF32), TensorType({2, 3}, DType::kS32));
}

TEST(TypeTest, RangeVsTensor) {
  Type tensor = TensorType({4});
  Type range = RangeType(4, "B");
  EXPECT_TRUE(tensor.IsTensor());
  EXPECT_TRUE(range.IsRange());
  EXPECT_NE(tensor, range);
  EXPECT_EQ(range.range().size(), 4);
  EXPECT_EQ(range.range().axis(), "B");
}

TEST(DTypeTest, ByteWidths) {
  EXPECT_EQ(ByteWidth(DType::kF32), 4);
  EXPECT_EQ(ByteWidth(DType::kBF16), 2);
  EXPECT_EQ(ByteWidth(DType::kS32), 4);
  EXPECT_EQ(ByteWidth(DType::kPred), 1);
}

class BuilderTest : public ::testing::Test {
 protected:
  Module module_;
};

TEST_F(BuilderTest, MatMulChainFromPaper) {
  // Listing 1: the unpartitioned matmul chain.
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  Value* w1 = func->body().AddArg(TensorType({8, 16}), "w1");
  Value* w2 = func->body().AddArg(TensorType({16, 8}), "w2");
  OpBuilder builder(&func->body());
  Value* x1 = builder.MatMul(x, w1);
  Value* x2 = builder.MatMul(x1, w2);
  builder.Return({x2});

  EXPECT_EQ(x1->tensor_type(), TensorType({256, 16}));
  EXPECT_EQ(x2->tensor_type(), TensorType({256, 8}));
  EXPECT_TRUE(Verify(module_).empty());
}

TEST_F(BuilderTest, DotGeneralBatchDims) {
  Func* func = module_.AddFunc("main");
  Value* q = func->body().AddArg(TensorType({4, 16, 8, 32}), "q");  // BHSd
  Value* k = func->body().AddArg(TensorType({4, 16, 8, 32}), "k");
  OpBuilder builder(&func->body());
  // Attention logits: contract the feature dim, batch over (B, H).
  Value* logits = builder.Dot(q, k, {3}, {3}, {0, 1}, {0, 1});
  builder.Return({logits});
  EXPECT_EQ(logits->tensor_type(), TensorType({4, 16, 8, 8}));
  EXPECT_TRUE(Verify(module_).empty());
}

TEST_F(BuilderTest, ReduceRemovesDims) {
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 5, 6}), "x");
  OpBuilder builder(&func->body());
  Value* r = builder.Reduce(x, {1}, "sum");
  builder.Return({r});
  EXPECT_EQ(r->tensor_type(), TensorType({4, 6}));
}

TEST_F(BuilderTest, TransposeShape) {
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({2, 3, 4}), "x");
  OpBuilder builder(&func->body());
  Value* t = builder.Transpose(x, {2, 0, 1});
  builder.Return({t});
  EXPECT_EQ(t->tensor_type(), TensorType({4, 2, 3}));
}

TEST_F(BuilderTest, BroadcastInDim) {
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({5}), "x");
  OpBuilder builder(&func->body());
  Value* b = builder.BroadcastInDim(x, {3, 5}, {1});
  builder.Return({b});
  EXPECT_EQ(b->tensor_type(), TensorType({3, 5}));
}

TEST_F(BuilderTest, GatherShape) {
  Func* func = module_.AddFunc("main");
  Value* table = func->body().AddArg(TensorType({100, 16}), "table");
  Value* ids =
      func->body().AddArg(TensorType({4, 8}, DType::kS32), "ids");
  OpBuilder builder(&func->body());
  Value* rows = builder.Gather(table, ids);
  builder.Return({rows});
  EXPECT_EQ(rows->tensor_type(), TensorType({4, 8, 16}));
}

TEST_F(BuilderTest, ScatterAddShape) {
  Func* func = module_.AddFunc("main");
  Value* ids = func->body().AddArg(TensorType({6}, DType::kS32), "ids");
  Value* updates = func->body().AddArg(TensorType({6, 3}), "updates");
  OpBuilder builder(&func->body());
  Value* out = builder.ScatterAdd(ids, updates, 10);
  builder.Return({out});
  EXPECT_EQ(out->tensor_type(), TensorType({10, 3}));
}

TEST_F(BuilderTest, ConvolutionSameShape) {
  Func* func = module_.AddFunc("main");
  Value* img = func->body().AddArg(TensorType({2, 8, 8, 3}), "img");
  Value* filter = func->body().AddArg(TensorType({3, 3, 3, 16}), "filter");
  OpBuilder builder(&func->body());
  Value* out = builder.Convolution(img, filter);
  Value* filter2 = builder.Constant(0.1, {3, 3, 16, 16});
  Value* down = builder.Convolution(out, filter2, {2, 2});
  builder.Return({down});
  EXPECT_EQ(out->tensor_type(), TensorType({2, 8, 8, 16}));
  EXPECT_EQ(down->tensor_type(), TensorType({2, 4, 4, 16}));
}

TEST_F(BuilderTest, LoopAndSliceTypes) {
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  OpBuilder builder(&func->body());
  Operation* loop =
      builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
  Block& body = loop->region(0).block();
  OpBuilder body_builder(&body);
  Value* slice = body_builder.PSlice(x, body.arg(0), 0);
  body_builder.Yield(&body, {slice});
  builder.Return({loop->result()});

  EXPECT_EQ(slice->tensor_type(), TensorType({64, 8}));
  EXPECT_TRUE(Verify(module_).empty()) << Print(module_);
}

TEST_F(BuilderTest, SoftmaxPreservesShape) {
  Func* func = module_.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 7}), "x");
  OpBuilder builder(&func->body());
  Value* s = builder.Softmax(x);
  builder.Return({s});
  EXPECT_EQ(s->tensor_type(), TensorType({4, 7}));
  EXPECT_TRUE(Verify(module_).empty());
}

TEST(VerifierTest, CatchesMissingReturn) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4}), "x");
  OpBuilder builder(&func->body());
  builder.Add(x, x);
  EXPECT_FALSE(Verify(module).empty());
}

TEST(VerifierTest, CatchesBadLoopYieldType) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  OpBuilder builder(&func->body());
  // Claim tile_dim 0 but yield the full tensor: type mismatch.
  Operation* loop = builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
  Block& body = loop->region(0).block();
  OpBuilder body_builder(&body);
  body_builder.Yield(&body, {x});
  builder.Return({loop->result()});
  EXPECT_FALSE(Verify(module).empty());
}

TEST(VerifierTest, CatchesUseBeforeDef) {
  Module module;
  Func* func = module.AddFunc("main");
  func->body().AddArg(TensorType({4}), "x");
  // Build an op whose operand belongs to a different function.
  Module other;
  Func* other_func = other.AddFunc("other");
  Value* foreign = other_func->body().AddArg(TensorType({4}), "y");
  OpBuilder builder(&func->body());
  Value* bad = builder.Neg(foreign);
  builder.Return({bad});
  EXPECT_FALSE(Verify(module).empty());
}

TEST(VerifierTest, LoopRegionValuesAreScopedToTheLoop) {
  // A value defined before a loop is visible inside its region; a value
  // (or the range argument) defined inside the region is not visible after
  // the loop, nor inside a later loop.
  auto build = [](Module& module, bool leak_slice, bool leak_range) {
    Func* func = module.AddFunc("main");
    Value* x = func->body().AddArg(TensorType({256, 8}), "x");
    OpBuilder builder(&func->body());
    Value* before = builder.Neg(x);
    Operation* loop = builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
    Block& body = loop->region(0).block();
    OpBuilder body_builder(&body);
    Value* slice = body_builder.PSlice(before, body.arg(0), 0);
    body_builder.Yield(&body, {slice});
    Operation* later = builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
    Block& later_body = later->region(0).block();
    OpBuilder later_builder(&later_body);
    Value* range = leak_range ? body.arg(0) : later_body.arg(0);
    later_builder.Yield(&later_body,
                        {later_builder.PSlice(loop->result(), range, 0)});
    builder.Return({leak_slice ? builder.Neg(slice) : later->result()});
  };
  Module valid;
  build(valid, /*leak_slice=*/false, /*leak_range=*/false);
  EXPECT_TRUE(Verify(valid).empty()) << Print(valid);

  Module leaked_slice;
  build(leaked_slice, /*leak_slice=*/true, /*leak_range=*/false);
  std::vector<std::string> diags = Verify(leaked_slice);
  ASSERT_EQ(diags.size(), 1u) << Print(leaked_slice);
  EXPECT_NE(diags[0].find("not dominating"), std::string::npos) << diags[0];

  Module leaked_range;
  build(leaked_range, /*leak_slice=*/false, /*leak_range=*/true);
  diags = Verify(leaked_range);
  ASSERT_EQ(diags.size(), 1u) << Print(leaked_range);
  EXPECT_NE(diags[0].find("not dominating"), std::string::npos) << diags[0];
}

// ---- One mistyped op per kind: Verify names the op and the broken rule ----

/** Appends `kind` with an explicit (possibly wrong) result type and
 *  attributes, bypassing the builder's typing rule. */
Value* RawOp(Block& block, OpKind kind, std::vector<Value*> operands,
             Type declared,
             std::vector<std::pair<std::string, Attr>> attrs = {}) {
  auto op = std::make_unique<Operation>(kind, std::move(operands),
                                        std::vector<Type>{declared});
  for (auto& [name, value] : attrs) op->attrs().Set(name, std::move(value));
  return block.Append(std::move(op))->result();
}

struct MistypedCase {
  const char* name;
  /** Builds the bad op into `func` (after its args) and returns a value to
   *  return. */
  std::function<Value*(Func&)> build;
  const char* location;  // where the first diagnostic points
  const char* expect;    // what it says
};

std::vector<MistypedCase> MistypedCases() {
  using V = std::vector<int64_t>;
  auto arg = [](Func& f, std::vector<int64_t> dims,
                DType dtype = DType::kF32) {
    return f.body().AddArg(TensorType(std::move(dims), dtype),
                           StrCat("a", f.body().num_args()));
  };
  auto raw = [](Func& f, OpKind kind, std::vector<Value*> operands,
                std::vector<int64_t> dims,
                std::vector<std::pair<std::string, Attr>> attrs = {}) {
    return RawOp(f.body(), kind, std::move(operands),
                 TensorType(std::move(dims)), std::move(attrs));
  };
  auto apd = [](AxesPerDim axes) { return Attr(std::move(axes)); };
  auto strs = [](std::vector<std::string> s) { return Attr(std::move(s)); };
  return {
      {"reshape element count",
       [=](Func& f) {
         return raw(f, OpKind::kReshape, {arg(f, {4, 6})}, {5, 5});
       },
       "op 0 (reshape)", "element count"},
      {"transpose perm",
       [=](Func& f) {
         return raw(f, OpKind::kTranspose, {arg(f, {2, 3})}, {2, 2},
                    {{"perm", V{0, 0}}});
       },
       "op 0 (transpose)", "perm repeats dim 0"},
      {"transpose result",
       [=](Func& f) {
         return raw(f, OpKind::kTranspose, {arg(f, {2, 3})}, {2, 3},
                    {{"perm", V{1, 0}}});
       },
       "op 0 (transpose)", "typing rule gives tensor<3x2xf32>"},
      {"reduce dims",
       [=](Func& f) {
         return raw(f, OpKind::kReduce, {arg(f, {4, 5})}, {4},
                    {{"dims", V{2}}, {"reduction", std::string("sum")}});
       },
       "op 0 (reduce)", "dims dim 2 is out of range"},
      {"reduce result",
       [=](Func& f) {
         return raw(f, OpKind::kReduce, {arg(f, {4, 5, 6})}, {4, 5},
                    {{"dims", V{1}}, {"reduction", std::string("sum")}});
       },
       "op 0 (reduce)", "typing rule gives tensor<4x6xf32>"},
      {"broadcast embedding",
       [=](Func& f) {
         return raw(f, OpKind::kBroadcastInDim, {arg(f, {5})}, {3, 4},
                    {{"broadcast_dims", V{1}}});
       },
       "op 0 (broadcast_in_dim)", "does not embed"},
      {"static_slice window",
       [=](Func& f) {
         return raw(f, OpKind::kStaticSlice, {arg(f, {4, 4})}, {5, 4},
                    {{"starts", V{0, 0}}, {"limits", V{5, 4}}});
       },
       "op 0 (static_slice)", "exceeds dim 0"},
      {"static_slice result",
       [=](Func& f) {
         return raw(f, OpKind::kStaticSlice, {arg(f, {4, 4})}, {4, 4},
                    {{"starts", V{0, 1}}, {"limits", V{4, 3}}});
       },
       "op 0 (static_slice)", "typing rule gives tensor<4x2xf32>"},
      {"concatenate off-dim mismatch",
       [=](Func& f) {
         return raw(f, OpKind::kConcatenate, {arg(f, {2, 3}), arg(f, {2, 4})},
                    {4, 3}, {{"dim", int64_t{0}}});
       },
       "op 0 (concatenate)", "off the concatenation dim"},
      {"concatenate overflow",
       [=](Func& f) {
         return raw(f, OpKind::kConcatenate,
                    {arg(f, {int64_t{1} << 62}), arg(f, {int64_t{1} << 62})},
                    {1}, {{"dim", int64_t{0}}});
       },
       "op 0 (concatenate)", "overflows int64"},
      {"gather indices",
       [=](Func& f) {
         return raw(f, OpKind::kGather, {arg(f, {10, 4}), arg(f, {3})},
                    {3, 4});
       },
       "op 0 (gather)", "indices must be s32"},
      {"scatter_add updates",
       [=](Func& f) {
         return raw(f, OpKind::kScatterAdd,
                    {arg(f, {3}, DType::kS32), arg(f, {4, 2})}, {8, 2},
                    {{"num_rows", int64_t{8}}});
       },
       "op 0 (scatter_add)", "do not extend"},
      {"convolution channels",
       [=](Func& f) {
         return raw(f, OpKind::kConvolution,
                    {arg(f, {1, 4, 4, 3}), arg(f, {3, 3, 2, 8})},
                    {1, 4, 4, 8}, {{"strides", V{1, 1}}});
       },
       "op 0 (convolution)", "input channels 3"},
      {"dot batch dims",
       [=](Func& f) {
         return raw(f, OpKind::kDot, {arg(f, {2, 3, 4}), arg(f, {5, 4, 6})},
                    {2, 3, 6},
                    {{"lhs_contract", V{2}}, {"rhs_contract", V{1}},
                     {"lhs_batch", V{0}}, {"rhs_batch", V{0}}});
       },
       "op 0 (dot)", "batch dims disagree"},
      {"all_gather axes",
       [=](Func& f) {
         return raw(f, OpKind::kAllGather, {arg(f, {4, 4})}, {8, 4},
                    {{"axes_per_dim", apd({{"Z"}, {}})}});
       },
       "op 0 (all_gather)", "unknown mesh axis 'Z'"},
      {"all_gather result",
       [=](Func& f) {
         return raw(f, OpKind::kAllGather, {arg(f, {4, 4})}, {4, 4},
                    {{"axes_per_dim", apd({{"B"}, {}})}});
       },
       "op 0 (all_gather)", "typing rule gives tensor<8x4xf32>"},
      {"all_gather overflow",
       [=](Func& f) {
         return raw(f, OpKind::kAllGather, {arg(f, {int64_t{1} << 62, 4})},
                    {1, 4}, {{"axes_per_dim", apd({{"B"}, {}})}});
       },
       "op 0 (all_gather)", "overflows int64"},
      {"all_slice divisibility",
       [=](Func& f) {
         return raw(f, OpKind::kAllSlice, {arg(f, {7, 4})}, {3, 4},
                    {{"axes_per_dim", apd({{"B"}, {}})}});
       },
       "op 0 (all_slice)", "not divisible by the axis product 2"},
      {"all_slice axes",
       [=](Func& f) {
         return raw(f, OpKind::kAllSlice, {arg(f, {6, 4})}, {1, 4},
                    {{"axes_per_dim", apd({{"B", "B"}, {}})}});
       },
       "op 0 (all_slice)", "repeats mesh axis 'B'"},
      {"reduce_scatter axes",
       [=](Func& f) {
         return raw(f, OpKind::kReduceScatter, {arg(f, {4, 4})}, {2, 4},
                    {{"axes_per_dim", apd({{"B"}})},
                     {"reduction", std::string("sum")}});
       },
       "op 0 (reduce_scatter)", "axes_per_dim lists 1 dim(s)"},
      {"reduce_scatter divisibility",
       [=](Func& f) {
         return raw(f, OpKind::kReduceScatter, {arg(f, {4, 4})}, {4, 1},
                    {{"axes_per_dim", apd({{}, {"M"}})},
                     {"reduction", std::string("sum")}});
       },
       "op 0 (reduce_scatter)", "not divisible by the axis product 3"},
      {"all_to_all divisibility",
       [=](Func& f) {
         return raw(f, OpKind::kAllToAll, {arg(f, {2, 3})}, {4, 1},
                    {{"slice_dim", int64_t{1}},
                     {"concat_dim", int64_t{0}},
                     {"axes", strs({"B"})}});
       },
       "op 0 (all_to_all)", "not divisible by the group size 2"},
      {"loop tile type",
       [=](Func& f) {
         Value* x = arg(f, {64, 8});
         OpBuilder builder(&f.body());
         Operation* loop = builder.Loop("B", 2, "tile", 0,
                                        TensorType({256, 8}));
         Block& body = loop->region(0).block();
         OpBuilder(&body).Yield(&body, {x});
         return loop->result();
       },
       "op 0 (loop)", "typing rule gives tensor<128x8xf32>"},
      {"slice range",
       [=](Func& f) {
         Value* x = arg(f, {6, 8});
         OpBuilder builder(&f.body());
         Operation* loop = builder.Loop("M", 3, "tile", 0,
                                        TensorType({6, 8}));
         Block& body = loop->region(0).block();
         Value* range = body.arg(0);
         Value* slice = RawOp(body, OpKind::kPSlice, {x, range},
                              TensorType({2, 8}), {{"dim", int64_t{1}}});
         OpBuilder(&body).Yield(&body, {slice});
         return loop->result();
       },
       "op 0 (loop), op 0 (slice)", "dim 1 of tensor<6x8xf32>"},
  };
}

TEST(VerifierTest, EveryMistypedOpIsNamed) {
  Mesh mesh({{"B", 2}, {"M", 3}});
  for (const MistypedCase& c : MistypedCases()) {
    SCOPED_TRACE(c.name);
    Module module;
    Func* func = module.AddFunc("main");
    Value* result = c.build(*func);
    OpBuilder(&func->body()).Return({result});
    std::vector<std::string> diags = Verify(module, &mesh);
    ASSERT_FALSE(diags.empty()) << Print(module);
    EXPECT_EQ(diags[0].rfind(StrCat(c.location, ": "), 0), 0u) << diags[0];
    EXPECT_NE(diags[0].find(c.expect), std::string::npos) << diags[0];
  }
}

TEST(VerifierTest, PlacementRules) {
  // A collective inside a loop region and a slice outside one.
  Mesh mesh({{"B", 2}});
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Operation* loop = builder.Loop("B", 2, "sum", -1, TensorType({4, 4}));
  Block& body = loop->region(0).block();
  OpBuilder body_builder(&body);
  body_builder.SetMesh(&mesh);
  body_builder.Yield(&body, {body_builder.AllReduce(x, {"B"})});
  Value* stray = RawOp(func->body(), OpKind::kPSlice,
                       {loop->result(), body.arg(0)}, TensorType({2, 4}),
                       {{"dim", int64_t{0}}});
  builder.Return({stray});
  std::vector<std::string> diags = Verify(module, &mesh);
  std::set<std::string> expected = {
      "op 0 (loop), op 0 (all_reduce): collective inside a loop region",
      "op 1 (slice): uses a value not dominating it",
      "op 1 (slice): slice outside a loop region"};
  EXPECT_EQ(std::set<std::string>(diags.begin(), diags.end()), expected)
      << StrJoin(diags, "\n");
}

/**
 * Drops, then mistypes, every attribute of the first op of each kind in
 * `spmd`'s module: each mutation must be a Verify error naming that op,
 * never an abort, and restoring the attributes must verify clean again.
 */
void ExpectEveryAttributeIsRequired(SpmdModule& spmd) {
  Block& body = spmd.mutable_main()->body();
  ASSERT_TRUE(Verify(*spmd.module, &spmd.mesh).empty());
  std::set<OpKind> seen;
  int mutations = 0;
  for (int i = 0; i < body.num_ops(); ++i) {
    Operation& op = *body.ops()[i];
    if (!seen.insert(op.kind()).second) continue;
    const AttrMap original = op.attrs();
    for (const auto& [name, attr] : original.raw()) {
      SCOPED_TRACE(StrCat(OpLocation(i, op), " attribute '", name, "'"));
      AttrMap dropped;
      for (const auto& [other, value] : original.raw()) {
        if (other != name) dropped.Set(other, value);
      }
      AttrMap mistyped = original;
      mistyped.Set(name, std::holds_alternative<int64_t>(attr)
                             ? Attr(std::string("x"))
                             : Attr(int64_t{1}));
      for (const AttrMap& broken : {dropped, mistyped}) {
        op.attrs() = broken;
        std::vector<std::string> diags = Verify(*spmd.module, &spmd.mesh);
        ASSERT_FALSE(diags.empty());
        EXPECT_EQ(diags[0].rfind(OpLocation(i, op), 0), 0u) << diags[0];
        EXPECT_NE(diags[0].find(name), std::string::npos) << diags[0];
        ++mutations;
      }
      op.attrs() = original;
    }
  }
  EXPECT_TRUE(Verify(*spmd.module, &spmd.mesh).empty());
  EXPECT_GE(seen.size(), 10u);
  EXPECT_GT(mutations, 20);
}

TEST(VerifierTest, TrainStepAttributesAreAllRequired) {
  TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 64;
  config.num_heads = 8;
  config.head_dim = 8;
  config.ffw_size = 128;
  config.vocab = 128;
  config.batch = 4;
  config.seq = 8;
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Executable exe = program
                       .Partition(schedules::TransformerBPMPZ3(),
                                  Mesh({{"batch", 2}, {"model", 2}}))
                       .value();
  ExpectEveryAttributeIsRequired(exe.mutable_spmd());
}

TEST(VerifierTest, TransformerInferAttributesAreAllRequired) {
  serving::ServeWorkload workload = serving::TransformerInferWorkload();
  Program program = Program::Capture(workload.build, 1);
  Executable exe = program.Partition(workload.schedule, workload.mesh).value();
  ExpectEveryAttributeIsRequired(exe.mutable_spmd());
}

TEST(PrinterTest, PaperLikeSyntax) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  Value* w1 = func->body().AddArg(TensorType({8, 16}), "w1");
  OpBuilder builder(&func->body());
  Value* x1 = builder.MatMul(x, w1);
  x1->set_name("x1");
  builder.Return({x1});
  std::string text = Print(module);
  EXPECT_NE(text.find("func @main"), std::string::npos);
  EXPECT_NE(text.find("%x1 = dot"), std::string::npos);
  EXPECT_NE(text.find("tensor<256x16xf32>"), std::string::npos);
}

TEST(CloneTest, CloneIsStructurallyIdentical) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({8, 8}), "x");
  OpBuilder builder(&func->body());
  Value* y = builder.Add(builder.MatMul(x, x), x);
  builder.Return({y});

  Module target;
  ValueMap map;
  Func* clone = CloneFunc(*func, target, "main", &map);
  EXPECT_EQ(Print(*func), Print(*clone));
  EXPECT_EQ(map.at(x)->name(), "x");
}

TEST(CloneTest, CloneWithRegions) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  OpBuilder builder(&func->body());
  Operation* loop = builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
  Block& body = loop->region(0).block();
  OpBuilder body_builder(&body);
  body_builder.Yield(&body, {body_builder.PSlice(x, body.arg(0), 0)});
  builder.Return({loop->result()});

  Module target;
  Func* clone = CloneFunc(*func, target, "main", nullptr);
  EXPECT_EQ(Print(*func), Print(*clone));
  EXPECT_TRUE(Verify(target).empty());
}

TEST(DceTest, RemovesUnusedChain) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4}), "x");
  OpBuilder builder(&func->body());
  Value* used = builder.Neg(x);
  Value* dead1 = builder.Exp(x);
  builder.Tanh(dead1);  // dead2, uses dead1
  builder.Return({used});

  EXPECT_EQ(func->body().num_ops(), 4);
  int64_t removed = EliminateDeadCode(*func);
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(func->body().num_ops(), 2);
  EXPECT_TRUE(Verify(module).empty());
}

TEST(DceTest, KeepsEverythingLive) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4}), "x");
  OpBuilder builder(&func->body());
  Value* a = builder.Neg(x);
  Value* b = builder.Add(a, x);
  builder.Return({b});
  EXPECT_EQ(EliminateDeadCode(*func), 0);
}

TEST(WalkTest, CountsOpsInRegions) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 8}), "x");
  OpBuilder builder(&func->body());
  Operation* loop = builder.Loop("B", 4, "tile", 0, TensorType({256, 8}));
  Block& body = loop->region(0).block();
  OpBuilder body_builder(&body);
  body_builder.Yield(&body, {body_builder.PSlice(x, body.arg(0), 0)});
  builder.Return({loop->result()});
  // loop + slice + yield + return.
  EXPECT_EQ(CountOps(*func), 4);
}

}  // namespace
}  // namespace partir
