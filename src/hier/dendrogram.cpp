#include "hier/dendrogram.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "exec/exec.hpp"
#include "hier/rent.hpp"
#include "util/logging.hpp"

namespace ppacd::hier {

std::int32_t Dendrogram::add_node(netlist::ModuleId module, std::int32_t parent) {
  DendroNode node;
  node.id = static_cast<std::int32_t>(nodes_.size());
  node.parent = parent;
  node.module = module;
  node.level = parent < 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].level + 1;
  if (parent >= 0) nodes_[static_cast<std::size_t>(parent)].children.push_back(node.id);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

Dendrogram::Dendrogram(const netlist::Netlist& netlist) : nl_(&netlist) {
  const netlist::Netlist& nl = netlist;

  // 1. Mirror the module tree; give every cell-holding internal module an
  //    implicit leaf child so cells live only at leaves.
  std::vector<std::int32_t> node_of_module(nl.module_count(), -1);
  // Module tree ids are topologically ordered (parents created first).
  for (std::size_t mi = 0; mi < nl.module_count(); ++mi) {
    const netlist::Module& mod = nl.module(static_cast<netlist::ModuleId>(mi));
    const std::int32_t parent =
        mod.parent == netlist::kInvalidId ? -1 : node_of_module[mod.parent.index()];
    node_of_module[mi] = add_node(mod.id, parent);
  }
  leaf_of_cell_.assign(nl.cell_count(), -1);
  for (std::size_t mi = 0; mi < nl.module_count(); ++mi) {
    const netlist::Module& mod = nl.module(static_cast<netlist::ModuleId>(mi));
    if (mod.cells.empty()) continue;
    std::int32_t holder = node_of_module[mi];
    if (!mod.children.empty()) {
      // Implicit leaf child for directly-instantiated cells.
      holder = add_node(netlist::kInvalidId, node_of_module[mi]);
    }
    nodes_[static_cast<std::size_t>(holder)].cells = mod.cells;
    for (const netlist::CellId cid : mod.cells) {
      leaf_of_cell_[cid.index()] = holder;
    }
  }

  // 2. level_max = deepest leaf.
  level_max_ = 0;
  for (const DendroNode& node : nodes_) {
    if (node.children.empty()) level_max_ = std::max(level_max_, node.level);
  }

  // 3. Levelize: replicate shallow leaves downward (Alg. 2 lines 7-12).
  const std::size_t original_count = nodes_.size();
  for (std::size_t i = 0; i < original_count; ++i) {
    if (!nodes_[i].children.empty() || nodes_[i].level >= level_max_) continue;
    std::int32_t cursor = static_cast<std::int32_t>(i);
    const std::vector<netlist::CellId> cells = std::move(nodes_[i].cells);
    nodes_[i].cells.clear();
    for (int k = nodes_[i].level; k < level_max_; ++k) {
      const std::int32_t copy = add_node(nodes_[i].module, cursor);
      nodes_[static_cast<std::size_t>(copy)].replica = true;
      ++replicated_count_;
      cursor = copy;
    }
    nodes_[static_cast<std::size_t>(cursor)].cells = cells;
    for (const netlist::CellId cid : cells) {
      leaf_of_cell_[cid.index()] = cursor;
    }
  }
}

std::vector<std::int32_t> Dendrogram::clustering_at(
    int k, std::int32_t* cluster_count) const {
  assert(k >= 0 && k <= level_max_);
  // Map every node to its level-k ancestor, then compact the used ids.
  std::vector<std::int32_t> anchor(nodes_.size(), -1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::int32_t cursor = static_cast<std::int32_t>(i);
    while (cursor >= 0 && nodes_[static_cast<std::size_t>(cursor)].level > k) {
      cursor = nodes_[static_cast<std::size_t>(cursor)].parent;
    }
    anchor[i] = cursor;
  }
  std::vector<std::int32_t> compact(nodes_.size(), -1);
  std::int32_t next = 0;
  std::vector<std::int32_t> result(leaf_of_cell_.size(), -1);
  for (std::size_t ci = 0; ci < leaf_of_cell_.size(); ++ci) {
    const std::int32_t leaf = leaf_of_cell_[ci];
    assert(leaf >= 0);
    const std::int32_t a = anchor[static_cast<std::size_t>(leaf)];
    assert(a >= 0);
    if (compact[static_cast<std::size_t>(a)] < 0) {
      compact[static_cast<std::size_t>(a)] = next++;
    }
    result[ci] = compact[static_cast<std::size_t>(a)];
  }
  if (cluster_count != nullptr) *cluster_count = next;
  return result;
}

HierClusteringResult hierarchy_clustering(const netlist::Netlist& nl) {
  HierClusteringResult result;
  if (!nl.has_hierarchy() || nl.cell_count() == 0) {
    result.cluster_of_cell.assign(nl.cell_count(), 0);
    result.cluster_count = nl.cell_count() > 0 ? 1 : 0;
    result.chosen_level = 0;
    return result;
  }

  const Dendrogram dendro(nl);
  const int level_max = dendro.level_max();
  result.level_rent.assign(static_cast<std::size_t>(level_max) + 1,
                           std::numeric_limits<double>::quiet_NaN());

  // Candidate levels k in [1, level_max - 1]; see header for why the root
  // level is skipped. A two-level tree (leaves directly under root) has no
  // interior level, so fall back to the leaf level itself. The levels are
  // scored in parallel, one per chunk; each keeps only its R_avg, and the
  // winner's clustering is recomputed below, so peak memory holds one
  // assignment per lane rather than one per level.
  const int lo = 1;
  const int hi = std::max(1, level_max - 1);
  exec::parallel_for(
      static_cast<std::size_t>(lo), static_cast<std::size_t>(hi) + 1, 1,
      [&](std::size_t k) {
        std::int32_t count = 0;
        const auto assignment = dendro.clustering_at(static_cast<int>(k), &count);
        if (count >= 2) result.level_rent[k] = average_rent(nl, assignment, count);
      });
  // Ascending k with a strict <: ties keep the shallower level, and the NaN
  // of a skipped level never compares less.
  double best = std::numeric_limits<double>::infinity();
  for (int k = lo; k <= hi; ++k) {
    const double r = result.level_rent[static_cast<std::size_t>(k)];
    if (r < best) {
      best = r;
      result.chosen_level = k;
    }
  }
  if (result.chosen_level >= 0) {
    result.cluster_of_cell =
        dendro.clustering_at(result.chosen_level, &result.cluster_count);
  } else {
    // Degenerate tree: everything in one cluster.
    result.cluster_of_cell.assign(nl.cell_count(), 0);
    result.cluster_count = 1;
    result.chosen_level = 0;
  }
  PPACD_LOG_DEBUG("hier") << nl.name() << ": chose level " << result.chosen_level
                          << " with " << result.cluster_count
                          << " clusters (R_avg " << best << ")";
  return result;
}

}  // namespace ppacd::hier
