// Bitmap BFS executed THROUGH the Pinatubo memory (not just traced):
// frontier/visited/partial bitmaps live in simulated NVM rows, and every
// level's merge / filter / update runs as pim_ops derived from the sense
// amplifiers.  The result is cross-checked against a plain CPU BFS.
//
// Build & run:  ./examples/graph_bfs [nodes_log2=15]
#include <cstdio>
#include <limits>
#include <queue>

#include "apps/graph.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "pinatubo/driver.hpp"

using namespace pinatubo;

namespace {

/// Reference CPU BFS (level per vertex).
std::vector<std::uint32_t> cpu_bfs(const apps::Graph& g, std::uint32_t src) {
  std::vector<std::uint32_t> level(g.nodes(),
                                   std::numeric_limits<std::uint32_t>::max());
  std::queue<std::uint32_t> q;
  level[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    const auto [begin, end] = g.neighbors(v);
    for (const auto* w = begin; w != end; ++w)
      if (level[*w] == std::numeric_limits<std::uint32_t>::max()) {
        level[*w] = level[v] + 1;
        q.push(*w);
      }
  }
  return level;
}

int run(const Args& args) {
  const unsigned nodes_log2 = args.values.get_u32("nodes_log2", 15);
  PIN_CHECK_MSG(nodes_log2 <= 31,
                "nodes_log2 = " << nodes_log2
                                << ": node ids are 32-bit, so at most 31");
  apps::GraphGenParams gp;
  gp.nodes = 1u << nodes_log2;
  gp.avg_degree = 8;
  gp.communities = 4;
  gp.bridge_edges = 64;
  Rng rng(7);
  const auto g = apps::generate_graph(gp, rng);
  std::printf("graph: %u nodes, %llu directed edges\n", g.nodes(),
              static_cast<unsigned long long>(g.edges()));

  const std::uint32_t n = g.nodes();
  const unsigned P = 16;  // partial next-frontier bitmaps

  core::PimRuntime pim;
  std::vector<core::PimRuntime::Handle> partial(P);
  for (auto& h : partial) h = pim.pim_malloc(n);
  const auto visited = pim.pim_malloc(n);
  const auto frontier = pim.pim_malloc(n);
  const auto next = pim.pim_malloc(n);

  BitVector init(n);
  init.set(0);
  pim.pim_write(visited, init);
  pim.pim_write(frontier, init);

  const std::uint32_t span = (n + P - 1) / P;
  std::size_t levels = 0;
  BitVector host_frontier = init;
  while (host_frontier.any()) {
    // Scalar expansion into the partials (host writes into PIM rows).
    std::vector<BitVector> parts(P, BitVector(n));
    std::vector<std::uint64_t> dirty;
    host_frontier.for_each_set([&](std::size_t v) {
      const auto [begin, end] = g.neighbors(static_cast<std::uint32_t>(v));
      const unsigned p = static_cast<std::uint32_t>(v) / span;
      for (const auto* w = begin; w != end; ++w) parts[p].set(*w);
    });
    for (unsigned p = 0; p < P; ++p)
      if (parts[p].any()) {
        pim.pim_write(partial[p], parts[p]);
        dirty.push_back(partial[p]);
      }
    if (dirty.empty()) break;

    // merged = OR(dirty partials): one multi-row activation.
    if (dirty.size() >= 2) pim.pim_op(BitOp::kOr, dirty, dirty.front());
    // next = NOT visited AND merged.
    pim.pim_op(BitOp::kInv, {visited}, next);
    pim.pim_op(BitOp::kAnd, {next, dirty.front()}, next, true);
    // visited |= next.
    pim.pim_op(BitOp::kOr, {visited, next}, visited);

    host_frontier = pim.pim_read(next);
    // Clear consumed partials for the next level.
    for (const auto h : dirty) pim.pim_write(h, BitVector(n));
    ++levels;
  }

  // Validate against the CPU BFS.
  const auto ref = cpu_bfs(g, 0);
  const auto final_visited = pim.pim_read(visited);
  std::uint64_t mismatches = 0, reached = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const bool cpu_reached =
        ref[v] != std::numeric_limits<std::uint32_t>::max();
    reached += cpu_reached;
    mismatches += cpu_reached != final_visited.get(v);
  }
  std::printf("BFS levels: %zu, reached %llu/%u vertices\n", levels,
              static_cast<unsigned long long>(reached), n);
  std::printf("PIM result vs CPU BFS: %s (%llu mismatches)\n",
              mismatches == 0 ? "MATCH" : "MISMATCH",
              static_cast<unsigned long long>(mismatches));

  const auto& st = pim.stats();
  std::printf("\nPIM ops: %llu (intra %llu / inter-sub %llu / inter-bank %llu)\n",
              static_cast<unsigned long long>(st.ops),
              static_cast<unsigned long long>(st.intra_steps),
              static_cast<unsigned long long>(st.inter_sub_steps),
              static_cast<unsigned long long>(st.inter_bank_steps));
  std::printf("in-memory op time %s, energy %s\n",
              units::format_time(pim.cost().time_ns).c_str(),
              units::format_energy(pim.cost().energy.total_pj()).c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, {.words = {"nodes_log2"}}, run);
}
