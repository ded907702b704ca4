/**
 * @file
 * Connectivity algorithms on directed multigraphs.
 *
 * The paper's Definition 1 requires the system graph to be strongly
 * connected; this module provides the Tarjan SCC check used by the
 * methodology's validity assertions, plus the breadth-first search tree
 * from which every all-pairs route table is built: one search per
 * source switch gives the shortest path to every destination at once
 * (topo::treePath turns a tree path into links).
 */

#ifndef MINNOC_GRAPH_CONNECTIVITY_HPP
#define MINNOC_GRAPH_CONNECTIVITY_HPP

#include <vector>

#include "digraph.hpp"

namespace minnoc::graph {

/**
 * Strongly connected components by Tarjan's algorithm (iterative).
 * @return per-node component id, numbered in reverse topological order.
 */
std::vector<std::uint32_t> stronglyConnectedComponents(const Digraph &g);

/** Number of strongly connected components. */
std::size_t numScc(const Digraph &g);

/** True if @p g has exactly one SCC (and at least one node). */
bool isStronglyConnected(const Digraph &g);

/** A breadth-first search tree over a Digraph, from one root. */
struct BfsTree
{
    /**
     * Per node, the edge the search first reached it by; kNoEdge at
     * the root and at unreached nodes.
     */
    std::vector<EdgeId> parent;
    /** Per node, hops from the root; -1 when unreached. */
    std::vector<std::int64_t> dist;
    /** The reached nodes in the order the search settled them. */
    std::vector<NodeId> order;
};

/**
 * Breadth-first search from @p root over the live edges of @p g. Nodes
 * settle first in, first out, and each scans its out-edges in insertion
 * order; the first edge to reach a node becomes its parent. Following
 * parents back from any reached node gives a shortest path from
 * @p root, with ties going to the earliest-settled predecessor and then
 * to its earliest edge.
 */
BfsTree bfs(const Digraph &g, NodeId root);

} // namespace minnoc::graph

#endif // MINNOC_GRAPH_CONNECTIVITY_HPP
