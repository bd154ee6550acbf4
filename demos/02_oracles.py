"""Exact oracles: the ground truth behind every benchmark question.

Ten graph tasks, each with an exact solver. `gold_answer` dispatches a
(task, graph, query) triple to the right oracle and wraps the result in a
typed Answer, which is what the scorer ultimately compares against.
"""

from graphbench import (
    Graph,
    Task,
    connected_components,
    degree,
    gold_answer,
    has_cycle,
    is_bipartite,
    neighbors,
    shortest_path_length,
    spanning_forest,
    topo_order,
    validate_spanning_tree,
    validate_topo_order,
)


def main():
    # A small worked example: two triangles joined by a bridge, plus an
    # isolated node.
    g = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    print(f"graph: n={g.n}, edges={g.edges}\n")

    print("== Graph-level oracles ==")
    print(f"  node_count            -> {g.n}")
    print(f"  edge_count            -> {g.edge_count}")
    print(f"  connected_components  -> {connected_components(g)}   (nodes 6, 7 are isolated)")
    print(f"  has_cycle             -> {has_cycle(g)}")
    print(f"  is_bipartite          -> {is_bipartite(g)}  (contains triangles)")
    forest = spanning_forest(g)
    print(f"  spanning_forest       -> {sorted(forest)}")
    print(f"    validates: {validate_spanning_tree(g, forest)}; "
          f"any other spanning forest of the same graph validates too")

    print("\n== Node- and pair-level oracles ==")
    print(f"  degree(g, 3)          -> {degree(g, 3)}")
    print(f"  neighbors(g, 3)       -> {sorted(neighbors(g, 3))}")
    print(f"  shortest_path(0, 5)   -> {shortest_path_length(g, 0, 5)}")

    print("\n== Directed: topological sorting ==")
    dag = Graph.from_edges(5, [(0, 2), (1, 2), (2, 3), (2, 4)], directed=True)
    order = topo_order(dag)
    print(f"  dag edges             -> {dag.edges}")
    print(f"  lexicographically smallest order -> {order}")
    print(f"  validate_topo_order([1, 0, 2, 3, 4]) -> "
          f"{validate_topo_order(dag, (1, 0, 2, 3, 4))}  (also valid)")
    print(f"  validate_topo_order([2, 0, 1, 3, 4]) -> "
          f"{validate_topo_order(dag, (2, 0, 1, 3, 4))}  (2 before its parents)")

    print("\n== gold_answer ties it together ==")
    for task, query in [(Task.CYCLE_CHECK, ()), (Task.NODE_DEGREE, (3,)),
                        (Task.SHORTEST_PATH, (0, 5))]:
        ans = gold_answer(task, g, query)
        print(f"  {task.value:<16} query={query!r:<8} -> {ans.kind.value}: {ans.value}")


if __name__ == "__main__":
    main()
