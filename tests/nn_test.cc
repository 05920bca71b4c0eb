#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>

#include "nn/adam.h"
#include "nn/graph_embedder.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/qppnet.h"
#include "nn/tree_lstm.h"
#include "scalar_graph_embedder.h"

namespace fgro {
namespace {

/// Checks every parameter's analytic gradient against central finite
/// differences. `loss` must be a pure function of the current parameter
/// values; `backward` must accumulate gradients of that loss.
void CheckGradients(const std::vector<Param*>& params,
                    const std::function<double()>& loss,
                    const std::function<void()>& backward,
                    double tolerance = 1e-5) {
  for (Param* p : params) p->ZeroGrad();
  backward();
  const double h = 1e-5;
  int checked = 0;
  for (Param* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (++checked % 3 != 0) continue;  // spot-check a third of the params
      double saved = p->value[i];
      p->value[i] = saved + h;
      double up = loss();
      p->value[i] = saved - h;
      double down = loss();
      p->value[i] = saved;
      double numeric = (up - down) / (2 * h);
      EXPECT_NEAR(p->grad[i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "param element " << i;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  // Overwrite with known weights: W = [[1,2],[3,4]], b = [0.5, -0.5].
  params[0]->value = {1, 2, 3, 4};
  params[1]->value = {0.5, -0.5};
  Vec y = layer.Forward({10, 20});
  EXPECT_DOUBLE_EQ(y[0], 10 + 40 + 0.5);
  EXPECT_DOUBLE_EQ(y[1], 30 + 80 - 0.5);
}

TEST(LinearTest, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  Vec x = {0.3, -1.2, 0.7};
  Vec target = {1.0, -0.5};
  auto loss = [&]() {
    Vec y = layer.Forward(x);
    return 0.5 * ((y[0] - target[0]) * (y[0] - target[0]) +
                  (y[1] - target[1]) * (y[1] - target[1]));
  };
  auto backward = [&]() {
    Vec y = layer.Forward(x);
    layer.Backward(x, {y[0] - target[0], y[1] - target[1]});
  };
  CheckGradients(params, loss, backward);
}

TEST(LinearTest, BackwardReturnsInputGradient) {
  Rng rng(3);
  Linear layer(2, 1, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  params[0]->value = {2.0, -3.0};
  Vec dx = layer.Backward({1.0, 1.0}, {1.0});
  EXPECT_DOUBLE_EQ(dx[0], 2.0);
  EXPECT_DOUBLE_EQ(dx[1], -3.0);
}

TEST(ActivationTest, ReluAndBackward) {
  Vec y = Relu({-1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  Vec dx = ReluBackward(y, {5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(dx[0], 0.0);
  EXPECT_DOUBLE_EQ(dx[2], 5.0);
}

TEST(MlpTest, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Mlp mlp({3, 5, 4, 1}, &rng);
  std::vector<Param*> params;
  mlp.AppendParams(&params);
  Vec x = {0.5, -0.2, 1.1};
  auto loss = [&]() {
    double y = mlp.Forward(x)[0];
    return 0.5 * (y - 2.0) * (y - 2.0);
  };
  auto backward = [&]() {
    MlpCache cache;
    double y = mlp.Forward(x, &cache)[0];
    mlp.Backward(cache, {y - 2.0});
  };
  CheckGradients(params, loss, backward);
}

TEST(LinearTest, ForwardBatchMatchesForwardPerRow) {
  Rng rng(21);
  Linear layer(5, 3, &rng);
  Rng data_rng(22);
  // Full 16-row panels, padded short panels, and a single row; an odd
  // output width leaves the kernel's two-row interleave a remainder row.
  for (int rows : {1, 10, 15, 16, 17, 33}) {
    Mat x;
    x.Resize(rows, 5);
    for (double& v : x.data) v = data_rng.Normal();
    Mat y;
    layer.ForwardBatch(x, &y);
    ASSERT_EQ(y.rows, rows);
    ASSERT_EQ(y.cols, 3);
    for (int r = 0; r < x.rows; ++r) {
      Vec row(x.Row(r), x.Row(r) + x.cols);
      Vec expected = layer.Forward(row);
      for (int c = 0; c < y.cols; ++c) {
        // Exact: the panel kernel keeps each output element's
        // accumulation order identical to the scalar path.
        EXPECT_EQ(y.Row(r)[c], expected[static_cast<size_t>(c)])
            << rows << " rows: row " << r << " col " << c;
      }
    }
  }
}

TEST(LinearTest, BackwardBatchMatchesBackwardIntoPerRowBitwise) {
  // 70 rows overflow the 64-term flush of the gradient accumulator; about
  // a third of dy is zero, as after a ReLU.
  Rng rng(23);
  Linear batched(19, 5, &rng);
  Linear scalar = batched;
  Rng data_rng(24);
  Mat x, dy;
  x.Resize(70, 19);
  dy.Resize(70, 5);
  for (double& v : x.data) v = data_rng.Normal();
  for (double& v : dy.data) {
    v = data_rng.Uniform(0.0, 1.0) < 0.35 ? 0.0 : data_rng.Normal();
  }
  Mat dx;
  batched.BackwardBatch(x, dy, &dx);
  ASSERT_EQ(dx.rows, 70);
  ASSERT_EQ(dx.cols, 19);
  for (int r = 0; r < x.rows; ++r) {
    Vec dxr(19, 0.0);
    scalar.BackwardInto(Vec(x.Row(r), x.Row(r) + x.cols),
                        Vec(dy.Row(r), dy.Row(r) + dy.cols), &dxr);
    for (int c = 0; c < dx.cols; ++c) {
      EXPECT_EQ(dx.Row(r)[c], dxr[static_cast<size_t>(c)])
          << "row " << r << " col " << c;
    }
  }
  std::vector<Param*> pb, ps;
  batched.AppendParams(&pb);
  scalar.AppendParams(&ps);
  for (size_t p = 0; p < pb.size(); ++p) {
    for (size_t i = 0; i < pb[p]->grad.size(); ++i) {
      EXPECT_EQ(pb[p]->grad[i], ps[p]->grad[i]) << "param " << p << " " << i;
    }
  }
}

TEST(LinearTest, ForwardIntoMatchesForward) {
  Rng rng(23);
  Linear layer(4, 4, &rng);
  Vec x = {0.3, -1.1, 2.2, 0.0};
  Vec expected = layer.Forward(x);
  Vec out;
  layer.ForwardInto(x, &out);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(MlpTest, CachedAndUncachedForwardAgree) {
  Rng rng(5);
  Mlp mlp({4, 8, 2}, &rng);
  Vec x = {1, 2, 3, 4};
  MlpCache cache;
  Vec a = mlp.Forward(x, &cache);
  Vec b = mlp.Forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize 0.5 * (w - 3)^2 for each of 4 scalar params.
  Param p;
  p.Resize(4, 1);
  Adam adam(Adam::Options{.lr = 0.1});
  std::vector<Param*> params = {&p};
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad(params);
    for (size_t i = 0; i < 4; ++i) p.grad[i] = p.value[i] - 3.0;
    adam.Step(params, 1);
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], 3.0, 0.05);
}

TEST(AdamTest, BatchAveragingScalesStep) {
  Param a, b;
  a.Resize(1, 1);
  b.Resize(1, 1);
  Adam opt_a(Adam::Options{.lr = 0.1}), opt_b(Adam::Options{.lr = 0.1});
  a.grad[0] = 8.0;
  b.grad[0] = 2.0;
  opt_a.Step({&a}, 4);   // 8/4 = 2
  opt_b.Step({&b}, 1);   // 2
  EXPECT_NEAR(a.value[0], b.value[0], 1e-12);
}

PlanGraph MakeDiamondGraph(int feat_dim) {
  PlanGraph g;
  g.node_features = {Vec(static_cast<size_t>(feat_dim), 0.1),
                     Vec(static_cast<size_t>(feat_dim), -0.3),
                     Vec(static_cast<size_t>(feat_dim), 0.7),
                     Vec(static_cast<size_t>(feat_dim), 0.2)};
  for (int i = 0; i < feat_dim; ++i) {
    g.node_features[2][static_cast<size_t>(i)] = 0.1 * i;
  }
  g.children = {{}, {0}, {0}, {1, 2}};
  g.node_types = {0, 1, 2, 3};
  return g;
}

/// Embeds one graph as a batch of one.
Vec EmbedOne(const GraphEmbedder& gnn, const PlanGraph& g) {
  GraphEmbedder::BatchCache cache;
  return gnn.ForwardBatch({&g}, &cache).data;
}

TEST(GraphEmbedderTest, OutputDimAndDeterminism) {
  Rng rng(6);
  GraphEmbedder gnn(4, 6, 2, &rng);
  PlanGraph g = MakeDiamondGraph(4);
  Vec e1 = EmbedOne(gnn, g);
  Vec e2 = EmbedOne(gnn, g);
  ASSERT_EQ(e1.size(), 6u);
  for (size_t i = 0; i < e1.size(); ++i) EXPECT_DOUBLE_EQ(e1[i], e2[i]);
}

TEST(GraphEmbedderTest, SensitiveToStructure) {
  Rng rng(7);
  GraphEmbedder gnn(4, 6, 2, &rng);
  PlanGraph diamond = MakeDiamondGraph(4);
  PlanGraph chain = diamond;
  chain.children = {{}, {0}, {1}, {2}};
  Vec e1 = EmbedOne(gnn, diamond);
  Vec e2 = EmbedOne(gnn, chain);
  double diff = 0.0;
  for (size_t i = 0; i < e1.size(); ++i) diff += std::abs(e1[i] - e2[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(GraphEmbedderTest, GradientsMatchFiniteDifference) {
  Rng rng(8);
  GraphEmbedder gnn(4, 5, 2, &rng);
  Mlp head({5, 1}, &rng);
  PlanGraph diamond = MakeDiamondGraph(4);
  PlanGraph chain = diamond;
  chain.children = {{}, {0}, {1}, {2}};
  const std::vector<const PlanGraph*> graphs = {&diamond, &chain};
  std::vector<Param*> params;
  gnn.AppendParams(&params);
  head.AppendParams(&params);
  // Summed over a batch of two graphs, so the backward crosses graphs.
  auto loss = [&]() {
    GraphEmbedder::BatchCache cache;
    MlpScratch scratch;
    const Mat& y = head.ForwardBatch(gnn.ForwardBatch(graphs, &cache),
                                     &scratch);
    double total = 0.0;
    for (int g = 0; g < y.rows; ++g) {
      total += 0.5 * (y.Row(g)[0] - 1.0) * (y.Row(g)[0] - 1.0);
    }
    return total;
  };
  auto backward = [&]() {
    GraphEmbedder::BatchCache cache;
    MlpBatchCache head_cache;
    const Mat& emb = gnn.ForwardBatch(graphs, &cache);
    const Mat& y = head.ForwardBatch(emb, &head_cache);
    Mat dy;
    dy.Resize(y.rows, 1);
    for (int g = 0; g < y.rows; ++g) dy.Row(g)[0] = y.Row(g)[0] - 1.0;
    Mat demb;
    head.BackwardBatch(&head_cache, dy, &demb);
    gnn.BackwardBatch(demb, &cache);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Graph shapes for the bitwise checks: a single node, nodes with no
/// children or parents, a multi-parent diamond, a chain, and a wide fan-in
/// whose root averages many children.
std::vector<PlanGraph> ReferenceGraphPool(int feat_dim) {
  auto features = [feat_dim](int n, double seed) {
    std::vector<Vec> rows(static_cast<size_t>(n),
                          Vec(static_cast<size_t>(feat_dim)));
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < feat_dim; ++k) {
        rows[static_cast<size_t>(i)][static_cast<size_t>(k)] =
            std::sin(seed + 1.7 * i + 0.31 * k);
      }
    }
    return rows;
  };
  std::vector<PlanGraph> pool(5);
  pool[0].node_features = features(1, 0.2);
  pool[0].children = {{}};
  pool[1].node_features = features(3, 1.1);
  pool[1].children = {{}, {}, {}};
  pool[2] = MakeDiamondGraph(feat_dim);
  pool[3].node_features = features(5, 2.3);
  pool[3].children = {{}, {0}, {1}, {2}, {3}};
  pool[4].node_features = features(7, 3.9);
  pool[4].children = {{1, 2, 3, 4, 5, 6}, {}, {}, {3}, {}, {1}, {}};
  for (PlanGraph& g : pool) g.node_types.assign(g.node_features.size(), 0);
  return pool;
}

/// Batch sizes that cross the 16-row GEMM panel and its 4-row tail.
class GraphEmbedderBatchTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

// Batched embeddings and one minibatch's gradients (GNN + MLP head, the
// TrainStep shape) against the scalar reference, bit for bit. With
// `single_node` every graph is one node, so the GNN's stacked rows equal
// the batch size too.
TEST_P(GraphEmbedderBatchTest, MatchesScalarReferenceBitwise) {
  const auto [batch, single_node] = GetParam();
  constexpr int kFeat = 6, kHidden = 8, kExtra = 3;
  Rng rng(91);
  GraphEmbedder gnn(kFeat, kHidden, 2, &rng);
  Mlp head({kHidden + kExtra, 7, 5, 1}, &rng);
  GraphEmbedder ref_gnn = gnn;
  Mlp ref_head = head;
  testing_util::ScalarGraphEmbedder scalar(&ref_gnn);

  const std::vector<PlanGraph> pool = ReferenceGraphPool(kFeat);
  std::vector<const PlanGraph*> graphs;
  for (int g = 0; g < batch; ++g) {
    graphs.push_back(single_node ? &pool[0]
                                 : &pool[static_cast<size_t>(g * 3 % 5)]);
  }
  auto extra = [](int g, int k) { return std::cos(0.7 * g + 1.3 * k); };
  auto target = [](int g) { return 0.25 * (g % 4); };

  std::vector<Param*> params, ref_params;
  gnn.AppendParams(&params);
  head.AppendParams(&params);
  ref_gnn.AppendParams(&ref_params);
  ref_head.AppendParams(&ref_params);

  // Reference: one sample at a time, in batch order.
  std::vector<Vec> ref_emb;
  for (int g = 0; g < batch; ++g) {
    testing_util::ScalarGraphEmbedder::Cache cache;
    Vec emb = scalar.Forward(*graphs[static_cast<size_t>(g)], &cache);
    ref_emb.push_back(emb);
    Vec input = emb;
    for (int k = 0; k < kExtra; ++k) input.push_back(extra(g, k));
    MlpCache mc;
    const double y = ref_head.Forward(input, &mc)[0];
    Vec dinput = ref_head.Backward(mc, {y - target(g)});
    scalar.Backward(cache, Vec(dinput.begin(), dinput.begin() + kHidden));
  }

  // Batched: one forward and one backward for the whole minibatch.
  GraphEmbedder::BatchCache cache;
  const Mat& emb = gnn.ForwardBatch(graphs, &cache);
  Mat input;
  input.Resize(batch, kHidden + kExtra);
  for (int g = 0; g < batch; ++g) {
    for (int k = 0; k < kHidden; ++k) {
      ASSERT_TRUE(SameBits(emb.Row(g)[k],
                           ref_emb[static_cast<size_t>(g)]
                                  [static_cast<size_t>(k)]))
          << "graph " << g << " dim " << k;
      input.Row(g)[k] = emb.Row(g)[k];
    }
    for (int k = 0; k < kExtra; ++k) input.Row(g)[kHidden + k] = extra(g, k);
  }
  MlpBatchCache head_cache;
  const Mat& y = head.ForwardBatch(input, &head_cache);
  Mat dy;
  dy.Resize(batch, 1);
  for (int g = 0; g < batch; ++g) dy.Row(g)[0] = y.Row(g)[0] - target(g);
  Mat dinput;
  head.BackwardBatch(&head_cache, dy, &dinput);
  Mat demb;
  demb.Resize(batch, kHidden);
  for (int g = 0; g < batch; ++g) {
    for (int k = 0; k < kHidden; ++k) demb.Row(g)[k] = dinput.Row(g)[k];
  }
  gnn.BackwardBatch(demb, &cache);

  ASSERT_EQ(params.size(), ref_params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p]->grad.size(); ++i) {
      ASSERT_TRUE(SameBits(params[p]->grad[i], ref_params[p]->grad[i]))
          << "param " << p << " element " << i << ": "
          << params[p]->grad[i] << " vs " << ref_params[p]->grad[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Batches, GraphEmbedderBatchTest,
    ::testing::Combine(::testing::Values(1, 15, 16, 17, 33),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "Batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "SingleNode" : "Mixed");
    });

PlanGraph MakeTree(int feat_dim) {
  // 0 <- 1, 0 <- 2, 2 <- 3 (root = 0)
  PlanGraph g;
  g.node_features.assign(4, Vec(static_cast<size_t>(feat_dim), 0.0));
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < feat_dim; ++i) {
      g.node_features[static_cast<size_t>(n)][static_cast<size_t>(i)] =
          0.05 * (n + 1) * (i + 1);
    }
  }
  g.children = {{1, 2}, {}, {3}, {}};
  g.node_types = {0, 1, 2, 3};
  return g;
}

TEST(TreeLstmTest, ForwardShapeAndDeterminism) {
  Rng rng(9);
  TreeLstm lstm(4, 6, &rng);
  PlanGraph tree = MakeTree(4);
  TreeLstm::Cache c1, c2;
  Vec h1 = lstm.Forward(tree, 0, &c1);
  Vec h2 = lstm.Forward(tree, 0, &c2);
  ASSERT_EQ(h1.size(), 6u);
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_DOUBLE_EQ(h1[i], h2[i]);
}

TEST(TreeLstmTest, GradientsMatchFiniteDifference) {
  Rng rng(10);
  TreeLstm lstm(3, 4, &rng);
  Mlp head({4, 1}, &rng);
  PlanGraph tree = MakeTree(3);
  std::vector<Param*> params;
  lstm.AppendParams(&params);
  head.AppendParams(&params);
  auto loss = [&]() {
    TreeLstm::Cache cache;
    double y = head.Forward(lstm.Forward(tree, 0, &cache))[0];
    return 0.5 * (y - 0.7) * (y - 0.7);
  };
  auto backward = [&]() {
    TreeLstm::Cache cache;
    Vec h = lstm.Forward(tree, 0, &cache);
    MlpCache mc;
    double y = head.Forward(h, &mc)[0];
    Vec dh = head.Backward(mc, {y - 0.7});
    lstm.Backward(cache, dh);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

TEST(QppNetTest, ForwardIsDeterministic) {
  Rng rng(11);
  QppNet qpp(5, 3, 4, 6, &rng);
  PlanGraph tree = MakeTree(3);
  QppNet::Cache c1, c2;
  EXPECT_DOUBLE_EQ(qpp.Forward(tree, 0, &c1), qpp.Forward(tree, 0, &c2));
}

TEST(QppNetTest, ArtificialRootUsesExtraUnit) {
  Rng rng(12);
  QppNet qpp(5, 3, 4, 6, &rng);
  PlanGraph tree = MakeTree(3);
  tree.node_types[0] = -1;  // artificial root
  QppNet::Cache cache;
  EXPECT_NO_FATAL_FAILURE(qpp.Forward(tree, 0, &cache));
  EXPECT_EQ(cache.nodes[0].unit, 5);  // index num_types = artificial unit
}

TEST(QppNetTest, GradientsMatchFiniteDifference) {
  Rng rng(13);
  QppNet qpp(5, 3, 3, 5, &rng);
  PlanGraph tree = MakeTree(3);
  std::vector<Param*> params;
  qpp.AppendParams(&params);
  auto loss = [&]() {
    QppNet::Cache cache;
    double y = qpp.Forward(tree, 0, &cache);
    return 0.5 * (y - 1.5) * (y - 1.5);
  };
  auto backward = [&]() {
    QppNet::Cache cache;
    double y = qpp.Forward(tree, 0, &cache);
    qpp.Backward(cache, y - 1.5);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

TEST(TrainingSmokeTest, MlpFitsLinearFunction) {
  Rng rng(14);
  Mlp mlp({2, 16, 1}, &rng);
  std::vector<Param*> params;
  mlp.AppendParams(&params);
  Adam adam(Adam::Options{.lr = 5e-3});
  Rng data_rng(15);
  double final_loss = 0.0;
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad(params);
    double loss_sum = 0.0;
    for (int b = 0; b < 8; ++b) {
      Vec x = {data_rng.Uniform(-1, 1), data_rng.Uniform(-1, 1)};
      double target = 2.0 * x[0] - 0.5 * x[1] + 0.25;
      MlpCache cache;
      double y = mlp.Forward(x, &cache)[0];
      loss_sum += 0.5 * (y - target) * (y - target);
      mlp.Backward(cache, {y - target});
    }
    adam.Step(params, 8);
    final_loss = loss_sum / 8;
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
}  // namespace fgro
