"""Walk through parsing a source string into a syntax tree and reading
structural features off it.

The tree keeps operator leaves and drops expression-context markers, so
`a + b` contributes a BinOp node, an Add node and two Name nodes. Feature
extraction treats it as an undirected simple graph.
"""

from cegraph import compute_graph_features, featurize, parse_to_graph

SNIPPET = '''\
def clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def mean(xs):
    total = 0.0
    for v in xs:
        total += v
    return total / len(xs)
'''


def main():
    graph = parse_to_graph(SNIPPET)
    print(f"nodes: {graph.node_count}  edges: {graph.edge_count}")

    # first few nodes in preorder, with their tree depth
    for node_id, (node, depth) in enumerate(zip(graph.ast_nodes[:10], graph.depth)):
        print(f"  [{node_id}] {type(node).__name__:<16} depth={depth}")
    print("  ...")

    feats = compute_graph_features(graph)
    print("\nstructural features:")
    for name in ("node_count", "edge_count", "degree_mean", "degree_entropy",
                 "depth_max", "diameter", "avg_shortest_path", "assortativity"):
        print(f"  {name:<20} {feats[name]:.4f}")

    # featurize() runs the full stack (graph + complexity) in one call
    row = featurize(SNIPPET)
    print(f"\nfeaturize() returns {len(row)} named values, e.g. "
          f"cc_total={row['cc_total']:.0f}, token_total={row['token_total']:.0f}")


if __name__ == "__main__":
    main()
