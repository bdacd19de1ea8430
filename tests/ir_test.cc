// Unit tests for the array-IR substrate: types, builder shape inference,
// printing, verification, cloning and DCE.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/ir.h"
#include "src/ir/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

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
