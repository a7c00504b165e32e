// The SIS network model: a DAG of nodes, each carrying a sum-of-products
// cover. This is the data structure the conventional (Brayton-McMullen /
// MIS) synthesis baseline operates on, mirroring how SIS scripts transform
// node covers with simplify / eliminate / extract / factor.
//
// All covers live in one global variable space: variable v < num_pis() is
// primary input v; variable num_pis()+k is the output of internal node k.
// Substitution (eliminate) and cross-node extraction are thus plain cover
// algebra. The space grows with add_node() and shrinks in compact(), which
// drops collapsed nodes and renumbers the survivors in their old order;
// flatten() compacts as it collapses, so a flattened network's covers are
// as wide as its live variables, not as every node it ever had.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "sop/cover.hpp"

namespace rmsyn {

class SopNetwork {
public:
  explicit SopNetwork(int num_pis);

  /// Builds the SIS view of a gate network: one SOP node per logic gate
  /// (the way SIS reads a multilevel BLIF), with single-literal nodes
  /// (buffers/inverters) collapsed.
  static SopNetwork from_network(const Network& net);

  int num_pis() const { return num_pis_; }
  int num_vars() const { return num_pis_ + static_cast<int>(covers_.size()); }
  std::size_t node_count() const { return covers_.size(); }

  /// Adds an internal node with the given cover (over the current variable
  /// space or narrower); returns its variable id, which is the highest one
  /// and stays valid until the next compact(). Every cover is then widened
  /// to the new variable space, so cover algebra across nodes never mixes
  /// widths.
  int add_node(Cover cover);

  const Cover& cover_of(int var) const;
  void set_cover(int var, Cover cover);
  bool is_pi(int var) const { return var < num_pis_; }

  const std::vector<int>& po_vars() const { return pos_; }
  const std::string& po_name(std::size_t i) const { return po_names_[i]; }
  void add_po(int var, std::string name);

  /// Variable ids (PIs and nodes) referenced by the cover of `var`,
  /// ascending. Maintained on every cover change.
  const std::vector<int>& fanins(int var) const {
    assert(!is_pi(var));
    return fanins_[static_cast<std::size_t>(var - num_pis_)];
  }
  /// Internal nodes whose cover reads internal node `var`, in no
  /// particular order. Maintained on every cover change.
  const std::vector<int>& readers(int var) const {
    assert(!is_pi(var));
    return readers_[static_cast<std::size_t>(var - num_pis_)];
  }
  /// Number of cover references to each variable (POs count once).
  std::vector<int> fanout_counts() const;

  /// Internal nodes in topological order (fanins first). Only live nodes
  /// (reachable from POs) are returned.
  std::vector<int> topo_nodes() const;

  /// Total SOP literal count over live nodes (the SIS `print_stats` lits).
  int literal_count() const;

  /// Substitutes node `var`'s cover into every reader and removes the node
  /// (SIS eliminate of a single node). POs are never collapsed. Returns
  /// false — leaving the network unchanged — when the node's complement
  /// exceeds the internal effort bound.
  bool collapse_node(int var);

  /// SOP-literal growth that collapse_node(var) would cause:
  /// Σ_readers (lits after - lits before) - lits(var). This is the SIS
  /// eliminate "value" of the node (literals saved by keeping it). Returns
  /// INT_MAX when the complement effort bound is exceeded.
  int collapse_growth(int var) const;

  /// Drops the collapsed nodes and renumbers the others: PIs keep their
  /// ids, surviving nodes take the next ids in ascending old-id order, and
  /// every cover is rebuilt at the new width with its cube order kept. The
  /// renumbering is monotone, so every order that follows variable ids
  /// (topo_nodes(), lowest-variable tie-breaks, cube text order) is kept.
  /// Every variable id held across the call is invalidated.
  void compact();

  /// Collapses the whole network to two-level form (one cover per PO over
  /// PIs only), the shape of the IWLS'91 PLA benchmarks. Each step
  /// collapses the first non-PO node of topo_nodes(), found by a DFS that
  /// stops there. Returns false — leaving the network partially collapsed
  /// but consistent — when a collapse grows a cover past `max_cubes`. The
  /// network is compacted whenever collapsed nodes outnumber the others,
  /// and once more on success, so variable ids held across the call are
  /// invalidated. Callers wanting all-or-nothing semantics should flatten
  /// a copy.
  bool flatten(std::size_t max_cubes);

  /// Converts to a gate network, factoring each node cover into AND/OR/NOT
  /// gates (literal factoring, the quick_factor shape).
  Network to_network() const;

private:
  /// Replaces node k's cover and updates its fanins and their readers.
  void store_cover(std::size_t k, Cover cover);
  /// The first non-PO node that topo_nodes() would list, or -1. A
  /// variable is visited when its `mark` entry equals `epoch`, so each
  /// call must pass an epoch no entry holds yet.
  int first_non_po(const std::vector<char>& is_po,
                   std::vector<uint32_t>& mark, uint32_t epoch) const;
  /// add_node without the widening, for bulk construction.
  int append_node(Cover cover);
  void widen_all();

  int num_pis_ = 0;
  std::vector<Cover> covers_;       // per internal node
  std::vector<std::vector<int>> fanins_; // support of each cover
  std::vector<std::vector<int>> readers_; // nodes whose fanins hold it
  std::vector<bool> dead_;          // collapsed nodes
  std::size_t dead_count_ = 0;
  std::vector<int> pos_;
  std::vector<std::string> po_names_;
};

} // namespace rmsyn
