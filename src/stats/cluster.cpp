#include "stats/cluster.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"

namespace snp::stats {

std::vector<std::size_t> Dendrogram::cut_k(std::size_t k) const {
  if (k == 0 || k > leaves_) {
    throw std::invalid_argument("Dendrogram::cut_k: k out of range");
  }
  // Nodes created by the first (leaves - k) merges stay glued; the last
  // (k - 1) merges are undone. Union-find over the kept merges.
  std::vector<std::size_t> parent(nodes_.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i] = i;
  }
  std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const std::size_t kept_merges = leaves_ - k;
  for (std::size_t m = 0; m < kept_merges; ++m) {
    const std::size_t node = leaves_ + m;
    parent[find(static_cast<std::size_t>(nodes_[node].left))] = node;
    parent[find(static_cast<std::size_t>(nodes_[node].right))] = node;
  }
  // Compact root ids to labels 0..k-1 in first-seen order.
  std::vector<std::size_t> labels(leaves_);
  std::vector<std::size_t> roots;
  for (std::size_t leaf = 0; leaf < leaves_; ++leaf) {
    const std::size_t root = find(leaf);
    const auto it = std::find(roots.begin(), roots.end(), root);
    if (it == roots.end()) {
      labels[leaf] = roots.size();
      roots.push_back(root);
    } else {
      labels[leaf] = static_cast<std::size_t>(it - roots.begin());
    }
  }
  return labels;
}

bool Dendrogram::heights_monotone() const {
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t i = leaves_; i < nodes_.size(); ++i) {
    if (nodes_[i].height + 1e-9 < prev) {
      return false;
    }
    prev = nodes_[i].height;
  }
  return true;
}

Dendrogram upgma(const bits::CountMatrix& d) {
  const std::size_t n = d.rows();
  if (n == 0 || d.cols() != n) {
    throw std::invalid_argument("upgma: need a non-empty square matrix");
  }
  std::vector<ClusterNode> nodes(n);  // leaves
  // Active clusters: node index + current average distance to every other
  // active cluster, maintained densely.
  std::vector<std::size_t> active;
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    active.push_back(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (d.at(i, j) != d.at(j, i)) {
        throw std::invalid_argument("upgma: matrix must be symmetric");
      }
      dist[i][j] = d.at(i, j);
    }
  }
  std::vector<std::vector<double>> node_dist = std::move(dist);
  node_dist.reserve(2 * n);

  while (active.size() > 1) {
    // Find the closest active pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 1;
    for (std::size_t a = 0; a < active.size(); ++a) {
      for (std::size_t b = a + 1; b < active.size(); ++b) {
        const double v = node_dist[active[a]][active[b]];
        if (v < best) {
          best = v;
          bi = a;
          bj = b;
        }
      }
    }
    const std::size_t left = active[bi];
    const std::size_t right = active[bj];
    ClusterNode merged;
    merged.left = static_cast<int>(left);
    merged.right = static_cast<int>(right);
    merged.height = best;
    merged.size = nodes[left].size + nodes[right].size;
    const std::size_t id = nodes.size();
    nodes.push_back(merged);

    // Size-weighted average distances to the new cluster.
    std::vector<double> row(nodes.size(), 0.0);
    for (const std::size_t other : active) {
      if (other == left || other == right) {
        continue;
      }
      const double wl = static_cast<double>(nodes[left].size);
      const double wr = static_cast<double>(nodes[right].size);
      row[other] = (wl * node_dist[left][other] +
                    wr * node_dist[right][other]) /
                   (wl + wr);
    }
    for (auto& existing : node_dist) {
      existing.push_back(0.0);
    }
    node_dist.push_back(row);
    for (const std::size_t other : active) {
      node_dist[other][id] = row[other];
    }

    active.erase(active.begin() + static_cast<std::ptrdiff_t>(bj));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(bi));
    active.push_back(id);
  }
  return Dendrogram(std::move(nodes), n);
}

bits::CountMatrix hamming_distances(const bits::BitMatrix& profiles) {
  // A self-comparison: the engine computes each pair once and mirrors it.
  return cpu::compare_blocked(profiles, profiles,
                              bits::Comparison::kXor);
}

}  // namespace snp::stats
