// Numerical tests for the reference interpreter, including the sequential
// semantics of PartIR:Core loops (the paper's Figure 13 denotations).
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "src/interp/interpreter.h"
#include "src/ir/builder.h"

namespace partir {
namespace {

constexpr float kTol = 1e-4f;

// Builds a single-op function and evaluates it on the given inputs.
template <typename BuildFn>
std::vector<Tensor> RunProgram(std::vector<TensorType> arg_types,
                               const std::vector<Tensor>& inputs,
                               BuildFn build) {
  Module module;
  Func* func = module.AddFunc("main");
  std::vector<Value*> args;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    args.push_back(
        func->body().AddArg(arg_types[i], StrCat("a", i)));
  }
  OpBuilder builder(&func->body());
  std::vector<Value*> results = build(builder, args);
  builder.Return(results);
  return Evaluate(*func, inputs);
}

TEST(InterpreterTest, ElementwiseBinary) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  auto out = RunProgram({TensorType({2, 2}), TensorType({2, 2})}, {a, b},
                        [](OpBuilder& builder, std::vector<Value*> args) {
                          return std::vector<Value*>{
                              builder.Add(args[0], args[1])};
                        });
  EXPECT_EQ(out[0].data(), std::vector<float>({11, 22, 33, 44}));
}

TEST(InterpreterTest, UnaryMath) {
  Tensor a({3}, {0.0f, 1.0f, 4.0f});
  auto out = RunProgram({TensorType({3})}, {a},
                        [](OpBuilder& builder, std::vector<Value*> args) {
                          return std::vector<Value*>{builder.Sqrt(args[0])};
                        });
  EXPECT_NEAR(out[0].at(0), 0.0f, kTol);
  EXPECT_NEAR(out[0].at(1), 1.0f, kTol);
  EXPECT_NEAR(out[0].at(2), 2.0f, kTol);
}

TEST(InterpreterTest, MatMul2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  auto out = RunProgram({TensorType({2, 2}), TensorType({2, 2})}, {a, b},
                        [](OpBuilder& builder, std::vector<Value*> args) {
                          return std::vector<Value*>{
                              builder.MatMul(args[0], args[1])};
                        });
  EXPECT_EQ(out[0].data(), std::vector<float>({19, 22, 43, 50}));
}

TEST(InterpreterTest, DotWithBatchDims) {
  // Batched matmul [2,2,3] x [2,3,2] over batch dim 0.
  Tensor a = Tensor::Random({2, 2, 3}, 1);
  Tensor b = Tensor::Random({2, 3, 2}, 2);
  auto out = RunProgram(
      {TensorType({2, 2, 3}), TensorType({2, 3, 2})}, {a, b},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{
            builder.Dot(args[0], args[1], {2}, {1}, {0}, {0})};
      });
  EXPECT_EQ(out[0].dims(), std::vector<int64_t>({2, 2, 2}));
  // Check one element by hand: out[1,0,1] = sum_k a[1,0,k]*b[1,k,1].
  float expect = 0;
  for (int k = 0; k < 3; ++k) {
    expect += a.Get({1, 0, k}) * b.Get({1, k, 1});
  }
  EXPECT_NEAR(out[0].Get({1, 0, 1}), expect, kTol);
}

TEST(InterpreterTest, TransposeReduce) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  auto out = RunProgram(
      {TensorType({2, 3})}, {a},
      [](OpBuilder& builder, std::vector<Value*> args) {
        Value* t = builder.Transpose(args[0], {1, 0});   // 3x2
        Value* r = builder.Reduce(t, {1}, "sum");        // 3
        Value* m = builder.Reduce(args[0], {0}, "max");  // 3
        return std::vector<Value*>{r, m};
      });
  EXPECT_EQ(out[0].data(), std::vector<float>({5, 7, 9}));
  EXPECT_EQ(out[1].data(), std::vector<float>({4, 5, 6}));
}

TEST(InterpreterTest, BroadcastInDim) {
  Tensor a({2}, {7, 9});
  auto out = RunProgram(
      {TensorType({2})}, {a},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{
            builder.BroadcastInDim(args[0], {2, 3}, {0})};
      });
  EXPECT_EQ(out[0].data(), std::vector<float>({7, 7, 7, 9, 9, 9}));
}

TEST(InterpreterTest, ConcatAndStaticSlice) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  auto out = RunProgram(
      {TensorType({2, 2}), TensorType({2, 2})}, {a, b},
      [](OpBuilder& builder, std::vector<Value*> args) {
        Value* c = builder.Concatenate({args[0], args[1]}, 1);  // 2x4
        Value* s = builder.StaticSlice(c, {0, 1}, {2, 3});      // 2x2
        return std::vector<Value*>{s};
      });
  EXPECT_EQ(out[0].data(), std::vector<float>({2, 5, 4, 7}));
}

TEST(InterpreterTest, GatherRows) {
  Tensor table({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor ids({2}, {2, 0});
  auto out = RunProgram(
      {TensorType({3, 2}), TensorType({2}, DType::kS32)}, {table, ids},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{builder.Gather(args[0], args[1])};
      });
  EXPECT_EQ(out[0].data(), std::vector<float>({20, 21, 0, 1}));
}

TEST(InterpreterTest, ScatterAddAccumulates) {
  Tensor ids({3}, {1, 1, 0});
  Tensor updates({3, 2}, {1, 2, 3, 4, 5, 6});
  auto out = RunProgram(
      {TensorType({3}, DType::kS32), TensorType({3, 2})}, {ids, updates},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{builder.ScatterAdd(args[0], args[1], 2)};
      });
  EXPECT_EQ(out[0].data(), std::vector<float>({5, 6, 4, 6}));
}

TEST(InterpreterTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::Random({4, 6}, 3);
  auto out = RunProgram({TensorType({4, 6})}, {a},
                        [](OpBuilder& builder, std::vector<Value*> args) {
                          return std::vector<Value*>{
                              builder.Softmax(args[0])};
                        });
  for (int row = 0; row < 4; ++row) {
    float sum = 0;
    for (int col = 0; col < 6; ++col) sum += out[0].Get({row, col});
    EXPECT_NEAR(sum, 1.0f, kTol);
  }
}

TEST(InterpreterTest, ConvolutionIdentityFilter) {
  // 1x1 identity filter preserves the image.
  Tensor img = Tensor::Random({1, 4, 4, 1}, 5);
  Tensor filter({1, 1, 1, 1}, {1.0f});
  auto out = RunProgram(
      {TensorType({1, 4, 4, 1}), TensorType({1, 1, 1, 1})}, {img, filter},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{
            builder.Convolution(args[0], args[1])};
      });
  EXPECT_LT(Tensor::MaxAbsDiff(out[0], img), kTol);
}

TEST(InterpreterTest, ConvolutionSamePaddingSums) {
  // All-ones 3x3 filter over an all-ones image: interior pixels get 9,
  // corners 4, edges 6.
  Tensor img({1, 3, 3, 1}, std::vector<float>(9, 1.0f));
  Tensor filter({3, 3, 1, 1}, std::vector<float>(9, 1.0f));
  auto out = RunProgram(
      {TensorType({1, 3, 3, 1}), TensorType({3, 3, 1, 1})}, {img, filter},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{
            builder.Convolution(args[0], args[1])};
      });
  EXPECT_NEAR(out[0].Get({0, 1, 1, 0}), 9.0f, kTol);
  EXPECT_NEAR(out[0].Get({0, 0, 0, 0}), 4.0f, kTol);
  EXPECT_NEAR(out[0].Get({0, 0, 1, 0}), 6.0f, kTol);
}

TEST(InterpreterTest, StridedConvolutionShape) {
  Tensor img = Tensor::Random({1, 4, 4, 2}, 7);
  Tensor filter = Tensor::Random({3, 3, 2, 3}, 8);
  auto out = RunProgram(
      {TensorType({1, 4, 4, 2}), TensorType({3, 3, 2, 3})}, {img, filter},
      [](OpBuilder& builder, std::vector<Value*> args) {
        return std::vector<Value*>{
            builder.Convolution(args[0], args[1], {2, 2})};
      });
  EXPECT_EQ(out[0].dims(), std::vector<int64_t>({1, 2, 2, 3}));
}

// The sequential loop semantics: a tile loop over slices reconstitutes the
// original computation (Figure 4, first equivalence).
TEST(InterpreterTest, TileLoopEqualsUnpartitioned) {
  Tensor x = Tensor::Random({8, 4}, 11);
  Tensor w = Tensor::Random({4, 6}, 12);

  Module module;
  Func* func = module.AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({8, 4}), "x");
  Value* wa = func->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder builder(&func->body());
  Operation* loop = builder.Loop("B", 4, "tile", 0, TensorType({8, 6}));
  Block& body = loop->region(0).block();
  OpBuilder inner(&body);
  Value* xs = inner.PSlice(xa, body.arg(0), 0);
  Value* part = inner.MatMul(xs, wa);
  inner.Yield(&body, {part});
  builder.Return({loop->result()});

  auto got = Evaluate(*func, {x, w});

  // Reference: plain matmul.
  Module ref_module;
  Func* ref = ref_module.AddFunc("main");
  Value* rx = ref->body().AddArg(TensorType({8, 4}), "x");
  Value* rw = ref->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder ref_builder(&ref->body());
  ref_builder.Return({ref_builder.MatMul(rx, rw)});
  auto want = Evaluate(*ref, {x, w});

  EXPECT_LT(Tensor::MaxAbsDiff(got[0], want[0]), kTol);
}

// A #sum loop over contracting-dim slices equals the full matmul
// (Figure 4, third equivalence).
TEST(InterpreterTest, SumLoopEqualsUnpartitioned) {
  Tensor x = Tensor::Random({8, 4}, 21);
  Tensor w = Tensor::Random({4, 6}, 22);

  Module module;
  Func* func = module.AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({8, 4}), "x");
  Value* wa = func->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder builder(&func->body());
  Operation* loop = builder.Loop("M", 2, "sum", -1, TensorType({8, 6}));
  Block& body = loop->region(0).block();
  OpBuilder inner(&body);
  Value* xs = inner.PSlice(xa, body.arg(0), 1);
  Value* ws = inner.PSlice(wa, body.arg(0), 0);
  inner.Yield(&body, {inner.MatMul(xs, ws)});
  builder.Return({loop->result()});

  auto got = Evaluate(*func, {x, w});

  Module ref_module;
  Func* ref = ref_module.AddFunc("main");
  Value* rx = ref->body().AddArg(TensorType({8, 4}), "x");
  Value* rw = ref->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder ref_builder(&ref->body());
  ref_builder.Return({ref_builder.MatMul(rx, rw)});
  auto want = Evaluate(*ref, {x, w});

  EXPECT_LT(Tensor::MaxAbsDiff(got[0], want[0]), kTol);
}

// An [any] loop evaluates its body once: all iterations are equal.
TEST(InterpreterTest, AnyLoopIsIdentity) {
  Tensor x = Tensor::Random({4, 4}, 31);
  Module module;
  Func* func = module.AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  Operation* loop = builder.Loop("M", 2, "any", -1, TensorType({4, 4}));
  Block& body = loop->region(0).block();
  OpBuilder inner(&body);
  inner.Yield(&body, {xa});
  builder.Return({loop->result()});
  auto got = Evaluate(*func, {x});
  EXPECT_LT(Tensor::MaxAbsDiff(got[0], x), kTol);
}

TEST(TensorTest, SliceChunkAndConcatRoundTrip) {
  Tensor x = Tensor::Random({6, 4}, 41);
  std::vector<Tensor> chunks;
  for (int i = 0; i < 3; ++i) chunks.push_back(x.SliceChunk(0, i, 3));
  EXPECT_EQ(chunks[0].dims(), std::vector<int64_t>({2, 4}));
  Tensor back = Tensor::Concat(chunks, 0);
  EXPECT_LT(Tensor::MaxAbsDiff(back, x), 1e-6f);
}

TEST(TensorTest, RandomIsDeterministic) {
  Tensor a = Tensor::Random({16}, 7);
  Tensor b = Tensor::Random({16}, 7);
  Tensor c = Tensor::Random({16}, 8);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
}

TEST(InterpreterTest, IotaAlongDims) {
  auto out = RunProgram({}, {},
                        [](OpBuilder& builder, std::vector<Value*>) {
                          return std::vector<Value*>{
                              builder.Iota({2, 3}, 1)};
                        });
  EXPECT_EQ(out[0].data(), std::vector<float>({0, 1, 2, 0, 1, 2}));
}

TEST(InterpreterTest, MakeRandomInputsRespectsIndexModulus) {
  Module module;
  Func* func = module.AddFunc("main");
  func->body().AddArg(TensorType({32}, DType::kS32), "ids");
  OpBuilder builder(&func->body());
  builder.Return({builder.Constant(0.0, {})});
  auto inputs = MakeRandomInputs(*func, 1, /*index_modulus=*/10.0f);
  for (int64_t i = 0; i < inputs[0].size(); ++i) {
    EXPECT_GE(inputs[0].at(i), 0.0f);
    EXPECT_LT(inputs[0].at(i), 10.0f);
    EXPECT_EQ(inputs[0].at(i), std::floor(inputs[0].at(i)));
  }
}

// ---- Span kernels against one-line scalar expressions ----

// +-0, +-inf, NaN, a denormal, +-1, 0.5, 3, 88.7 (exp near FLT_MAX), -104
// (exp underflows) and FLT_MAX.
const float kSpecials[] = {0.0f, -0.0f, INFINITY, -INFINITY, std::nanf(""),
                           1e-40f, 1.0f, -1.0f, 0.5f, 3.0f, 88.7f, -104.0f,
                           FLT_MAX};
constexpr int64_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);

// Operand 0 cycles through the specials and operand 1 advances once per
// cycle, so 169 consecutive elements hold every pairing.
std::vector<float> SpecialSpan(int64_t n, int operand) {
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = kSpecials[(operand == 0 ? i : i / kNumSpecials) % kNumSpecials];
  }
  return v;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

constexpr int64_t kSpanLengths[] = {0, 1, 7, 1000};

TEST(SpanKernelTest, UnaryKindsMatchScalarExpressionsBitwise) {
  const std::vector<std::pair<OpKind, float (*)(float)>> kinds = {
      {OpKind::kNeg, [](float x) { return -x; }},
      {OpKind::kExp, [](float x) { return std::exp(x); }},
      {OpKind::kLog, [](float x) { return std::log(x); }},
      {OpKind::kTanh, [](float x) { return std::tanh(x); }},
      {OpKind::kRsqrt, [](float x) { return 1.0f / std::sqrt(x); }},
      {OpKind::kSqrt, [](float x) { return std::sqrt(x); }},
      {OpKind::kLogistic,
       [](float x) { return 1.0f / (1.0f + std::exp(-x)); }},
  };
  for (const auto& [kind, fn] : kinds) {
    for (int64_t n : kSpanLengths) {
      SCOPED_TRACE(StrCat(OpKindName(kind), " over ", n));
      const std::vector<float> in = SpecialSpan(n, 0);
      std::vector<float> want(n);
      for (int64_t i = 0; i < n; ++i) want[i] = fn(in[i]);

      std::vector<float> out(n, 42.0f);
      ApplyUnarySpan(kind, in.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, want)) << "separate out";
      std::vector<float> same = in;
      ApplyUnarySpan(kind, same.data(), same.data(), n);
      EXPECT_TRUE(SameBits(same, want)) << "out == in";
    }
  }
}

TEST(SpanKernelTest, BinaryKindsMatchScalarExpressionsBitwise) {
  const std::vector<std::pair<OpKind, float (*)(float, float)>> kinds = {
      {OpKind::kAdd, [](float a, float b) { return a + b; }},
      {OpKind::kSub, [](float a, float b) { return a - b; }},
      {OpKind::kMul, [](float a, float b) { return a * b; }},
      {OpKind::kDiv, [](float a, float b) { return a / b; }},
      {OpKind::kMax, [](float a, float b) { return std::max(a, b); }},
      {OpKind::kMin, [](float a, float b) { return std::min(a, b); }},
      {OpKind::kPow, [](float a, float b) { return std::pow(a, b); }},
  };
  for (const auto& [kind, fn] : kinds) {
    for (int64_t n : kSpanLengths) {
      SCOPED_TRACE(StrCat(OpKindName(kind), " over ", n));
      const std::vector<float> a = SpecialSpan(n, 0);
      const std::vector<float> b = SpecialSpan(n, 1);
      std::vector<float> want(n), want_square(n);
      for (int64_t i = 0; i < n; ++i) {
        want[i] = fn(a[i], b[i]);
        want_square[i] = fn(a[i], a[i]);
      }

      std::vector<float> out(n, 42.0f);
      ApplyBinarySpan(kind, a.data(), b.data(), out.data(), n);
      EXPECT_TRUE(SameBits(out, want)) << "separate out";
      std::vector<float> into_a = a;
      ApplyBinarySpan(kind, into_a.data(), b.data(), into_a.data(), n);
      EXPECT_TRUE(SameBits(into_a, want)) << "out == a";
      std::vector<float> into_b = b;
      ApplyBinarySpan(kind, a.data(), into_b.data(), into_b.data(), n);
      EXPECT_TRUE(SameBits(into_b, want)) << "out == b";
      std::vector<float> all = a;
      ApplyBinarySpan(kind, all.data(), all.data(), all.data(), n);
      EXPECT_TRUE(SameBits(all, want_square)) << "a == b == out";
    }
  }
}

}  // namespace
}  // namespace partir
