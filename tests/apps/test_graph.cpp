#include "apps/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace pinatubo::apps {
namespace {

Graph small_graph() {
  // 0-1-2 path plus a 3-4 edge and an isolated vertex 5.
  return Graph(6, {{0, 1}, {1, 2}, {3, 4}});
}

TEST(Graph, CsrConstruction) {
  const auto g = small_graph();
  EXPECT_EQ(g.nodes(), 6u);
  EXPECT_EQ(g.edges(), 6u);  // symmetrized
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(5), 0u);
  const auto [b, e] = g.neighbors(1);
  EXPECT_EQ(e - b, 2);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 2u);
}

TEST(Graph, DropsSelfLoopsAndDuplicates) {
  const Graph g(3, {{0, 0}, {0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.edges(), 2u);  // one undirected edge
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RejectsBadEdges) {
  EXPECT_THROW(Graph(2, {{0, 5}}), Error);
  EXPECT_THROW(Graph(0, {}), Error);
  const auto g = small_graph();
  EXPECT_THROW(g.neighbors(6), Error);
  EXPECT_THROW(g.degree(6), Error);
}

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The CSR `g` must hold: both directions of every non-loop edge, sorted
/// and deduplicated per source, by a sort over all the pairs.
void expect_sorted_csr(const Graph& g, std::uint32_t nodes,
                       const EdgeList& edges) {
  EdgeList sym;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());
  ASSERT_EQ(g.nodes(), nodes);
  ASSERT_EQ(g.edges(), sym.size());
  auto it = sym.begin();
  for (std::uint32_t u = 0; u < nodes; ++u) {
    const auto [b, e] = g.neighbors(u);
    for (const std::uint32_t* t = b; t != e; ++t, ++it)
      ASSERT_EQ(*it, std::make_pair(u, *t)) << "node " << u;
  }
}

TEST(Graph, CsrEqualsTheSortedPairs) {
  Rng rng(99);
  for (const std::uint32_t nodes : {1u, 2u, 7u, 100u, 5000u}) {
    for (int rep = 0; rep < 3; ++rep) {
      EdgeList edges;
      const std::uint64_t n = rng.uniform_u64(4 * nodes + 10);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto u = static_cast<std::uint32_t>(rng.uniform_u64(nodes));
        const auto v = rng.chance(0.1)
                           ? u  // self loop
                           : static_cast<std::uint32_t>(rng.uniform_u64(nodes));
        edges.emplace_back(u, v);
        if (rng.chance(0.2)) edges.emplace_back(v, u);  // reversed duplicate
        if (rng.chance(0.2)) edges.emplace_back(u, v);  // exact duplicate
      }
      expect_sorted_csr(Graph(nodes, edges), nodes, edges);
    }
  }
}

TEST(Presets, CsrEqualsTheSortedPairs) {
  for (auto preset : {dblp2010_like(), eswiki2013_like(), amazon2008_like()}) {
    preset.gen.nodes >>= 4;
    Rng rng(17);
    const EdgeList edges = generate_edges(preset.gen, rng);
    expect_sorted_csr(Graph(preset.gen.nodes, edges), preset.gen.nodes,
                      edges);
  }
}

TEST(Generator, ProducesRequestedShape) {
  GraphGenParams p;
  p.nodes = 4096;
  p.avg_degree = 8;
  p.communities = 4;
  Rng rng(3);
  const auto g = generate_graph(p, rng);
  EXPECT_EQ(g.nodes(), 4096u);
  // Zipf-skewed endpoints collapse many duplicate pairs; after
  // symmetrization + dedup the directed degree lands near the knob.
  EXPECT_GT(g.average_degree(), 5.0);
  EXPECT_LT(g.average_degree(), 20.0);
}

TEST(Generator, Deterministic) {
  GraphGenParams p;
  p.nodes = 1024;
  Rng a(5), b(5);
  const auto g1 = generate_graph(p, a);
  const auto g2 = generate_graph(p, b);
  EXPECT_EQ(g1.edges(), g2.edges());
  for (std::uint32_t v = 0; v < g1.nodes(); ++v)
    EXPECT_EQ(g1.degree(v), g2.degree(v));
}

TEST(Generator, Validates) {
  GraphGenParams p;
  p.nodes = 1;
  Rng rng(1);
  EXPECT_THROW(generate_graph(p, rng), Error);
  p.nodes = 100;
  p.communities = 60;
  EXPECT_THROW(generate_graph(p, rng), Error);
}

std::size_t bfs_levels(const Graph& g) {
  std::vector<std::uint32_t> level(
      g.nodes(), std::numeric_limits<std::uint32_t>::max());
  std::queue<std::uint32_t> q;
  level[0] = 0;
  q.push(0);
  std::uint32_t deepest = 0;
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    const auto [b, e] = g.neighbors(v);
    for (const auto* w = b; w != e; ++w)
      if (level[*w] == std::numeric_limits<std::uint32_t>::max()) {
        level[*w] = level[v] + 1;
        deepest = std::max(deepest, level[*w]);
        q.push(*w);
      }
  }
  return deepest;
}

TEST(Presets, TightVsLooseDiameter) {
  // The whole point of the presets: dblp finishes in few levels, the
  // loose datasets crawl through many.
  const auto dblp = build_dataset(dblp2010_like(), 11);
  const auto amazon = build_dataset(amazon2008_like(), 11);
  const auto l_dblp = bfs_levels(dblp);
  const auto l_amazon = bfs_levels(amazon);
  EXPECT_LT(l_dblp, 15u);
  EXPECT_GT(l_amazon, 40u);
}

TEST(Presets, RecordRealDatasetNumbers) {
  EXPECT_EQ(dblp2010_like().real_nodes, 326186u);
  EXPECT_STREQ(dblp2010_like().character, "tight");
  EXPECT_STREQ(eswiki2013_like().character, "loose");
  EXPECT_STREQ(amazon2008_like().character, "loose");
}

}  // namespace
}  // namespace pinatubo::apps
