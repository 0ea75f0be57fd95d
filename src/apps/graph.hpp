// Synthetic graph substrate (stand-in for the paper's dblp-2010,
// eswiki-2013 and amazon-2008 downloads, which are unavailable offline).
//
// The bitmap-BFS evaluation depends on two workload properties only:
//   * how many BFS levels the graph needs (its effective diameter), and
//   * how edge traversals distribute over those levels (frontier profile).
// "Tight" graphs (dblp: a dense co-authorship network) finish in few
// levels with fat frontiers — bitwise-op friendly; "loose" graphs (eswiki,
// amazon) crawl through many thin levels — scalar-search dominated, which
// is exactly the paper's explanation for their lower overall speedup.
//
// The generator builds a chain of skewed random communities with sparse
// bridges: one fat community reproduces the tight profile, a long chain of
// small ones the loose profile.  Presets record the published properties
// of the datasets they stand in for.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"

namespace pinatubo::apps {

/// Immutable CSR graph (undirected: both edge directions stored).
class Graph {
 public:
  Graph(std::uint32_t nodes,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges);

  std::uint32_t nodes() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  std::uint64_t edges() const { return targets_.size(); }
  /// Neighbors of `v` (sorted, deduplicated).
  std::pair<const std::uint32_t*, const std::uint32_t*> neighbors(
      std::uint32_t v) const;
  std::uint32_t degree(std::uint32_t v) const;
  double average_degree() const {
    return static_cast<double>(edges()) / nodes();
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
};

/// Community-chain generator parameters.
struct GraphGenParams {
  std::uint32_t nodes = 1u << 16;
  double avg_degree = 12.0;     ///< intra-community random edges per node
  std::uint32_t communities = 1;///< chained communities (loose >> 1)
  std::uint32_t bridge_edges = 8;  ///< edges between adjacent communities
  double skew = 1.0;            ///< Zipf exponent for endpoint popularity
};

/// The generator's edge list (unsymmetrized, with duplicates and self
/// loops); generate_graph builds the Graph from it.
std::vector<std::pair<std::uint32_t, std::uint32_t>> generate_edges(
    const GraphGenParams& params, Rng& rng);
Graph generate_graph(const GraphGenParams& params, Rng& rng);

/// A dataset preset: generator parameters + the real dataset's published
/// numbers (kept for the DESIGN.md substitution record).
struct DatasetPreset {
  std::string name;
  GraphGenParams gen;
  std::uint32_t real_nodes;
  std::uint64_t real_edges;
  const char* character;  ///< "tight" or "loose" per the paper's discussion
};

/// dblp-2010: 326k nodes / ~1.6M edges, dense co-author communities,
/// short effective diameter — the paper's best graph case (1.37x overall).
DatasetPreset dblp2010_like();
/// eswiki-2013: ~972k nodes / ~23M arcs, weakly connected long tail.
DatasetPreset eswiki2013_like();
/// amazon-2008: ~735k nodes / ~5.2M edges, long product chains.
DatasetPreset amazon2008_like();

Graph build_dataset(const DatasetPreset& preset, std::uint64_t seed);

}  // namespace pinatubo::apps
