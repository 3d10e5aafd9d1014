import numpy as np
import pytest

from yieldgraph.autodiff import Tensor
from yieldgraph.graph import (
    CountyGraph,
    GraphFormatError,
    SageLayer,
    _segment_max,
    build_sage_stack,
    full_block,
    gnn_forward,
    load_graph,
    sample_block,
)
from tests.helpers import (
    aggregate_neighbors,
    check_param_gradients,
    check_tensor_gradients,
    reference_sample_block,
    reference_segment_max,
)


def _write(tmp_path, text, name="adj.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def dense_sage_oracle(graph, layers_params, x, aggregator):
    """Brute-force full-graph message passing in plain numpy.

    layers_params: list of (W, b[, Wp, bp]); sums run over neighbors in
    ascending index order, sequentially, to pin the summation order.
    """
    z = x.copy()
    for params in layers_params:
        w, b = params[0], params[1]
        if aggregator == "pool":
            wp, bp = params[2], params[3]
            transformed = np.maximum(z @ wp.T + bp[None, :], 0.0)
        n = graph.n
        d = z.shape[1]
        agg = np.zeros((n, d))
        for i in range(n):
            nbrs = graph.neighbors[i]
            if nbrs.size == 0:
                continue
            if aggregator == "mean":
                acc = np.zeros(d)
                for j in nbrs:  # sequential, ascending
                    acc = acc + z[j]
                agg[i] = acc / float(nbrs.size)
            else:
                acc = transformed[nbrs[0]].copy()
                for j in nbrs[1:]:
                    acc = np.maximum(acc, transformed[j])
                agg[i] = acc
        z = np.maximum(np.concatenate([z, agg], axis=1) @ w.T + b[None, :], 0.0)
    return z


def sampled_full_fanout(graph, stack, x, aggregator):
    block = full_block(graph, graph.node_ids, layers=len(stack))
    base = Tensor(x[block.input_nodes])
    return gnn_forward(stack, block, base).data


def _stack_params(stack):
    out = []
    for layer in stack:
        p = [layer.combine.weight.data, layer.combine.bias.data]
        if layer.pool_transform is not None:
            p += [layer.pool_transform.weight.data, layer.pool_transform.bias.data]
        out.append(p)
    return out


def test_load_graph_symmetrizes(tmp_path):
    g = load_graph(_write(tmp_path, "a\tb\n"))
    assert g.neighbor_ids("a") == ["b"]
    assert g.neighbor_ids("b") == ["a"]
    assert g.is_symmetric()


def test_load_graph_dedup(tmp_path):
    g1 = load_graph(_write(tmp_path, "a\tb\n", "one.tsv"))
    g2 = load_graph(_write(tmp_path, "a\tb\nb\ta\n", "two.tsv"))
    assert [list(v) for v in g1.neighbors] == [list(v) for v in g2.neighbors]


def test_load_graph_comments_and_errors(tmp_path):
    g = load_graph(_write(tmp_path, "# header\na\tb\n"))
    assert g.n == 2
    with pytest.raises(GraphFormatError):
        load_graph(_write(tmp_path, "", "empty.tsv"))
    with pytest.raises(GraphFormatError) as e:
        load_graph(_write(tmp_path, "a\tzzz\n", "bad.tsv"), node_ids={"a", "b"})
    assert "zzz" in str(e.value)


def test_load_graph_keeps_isolated_nodes_with_node_list(tmp_path):
    g = load_graph(_write(tmp_path, "a\tb\n"), node_ids={"a", "b", "c"})
    assert g.n == 3
    assert g.degree("c") == 0


def test_load_graph_drops_self_loops(tmp_path):
    g = load_graph(_write(tmp_path, "a\ta\na\tb\n"))
    assert g.degree("a") == 1


def test_census_scale_adjacency_if_available():
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "data", "county_adjacency.tsv")
    if not os.path.exists(path):
        pytest.skip("full census adjacency file not shipped with the repository")
    g = load_graph(path)
    assert g.n == 3107
    assert g.max_degree() <= 14


def test_aggregate_neighbors_mean_and_isolated():
    g = CountyGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    emb = Tensor(np.array([[9.0], [2.0], [4.0], [7.0]]))
    assert aggregate_neighbors(g, emb, "a", "mean").data.tolist() == [3.0]
    assert aggregate_neighbors(g, emb, "d", "mean").data.tolist() == [0.0]


def test_aggregate_neighbors_pool_identity_transform():
    g = CountyGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    emb = Tensor(np.array([[0.0, 0.0], [1.0, 5.0], [4.0, 2.0]]))
    out = aggregate_neighbors(g, emb, "a", "pool")
    assert out.data.tolist() == [4.0, 5.0]


def test_sage_layer_hand_case():
    rng = np.random.default_rng(0)
    g = CountyGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    layer = SageLayer(1, 1, "mean", rng)
    layer.combine.weight.data[...] = [[1.0, 1.0]]
    layer.combine.bias.data[...] = 0.0
    block = full_block(g, ["a"], layers=1)
    base = Tensor(np.array([[1.0], [2.0], [4.0]]))  # rows align with a,b,c
    out = gnn_forward([layer], block, base)
    assert out.data.tolist() == [[4.0]]  # self 1 + mean(2,4) = 3


def test_sage_layer_zero_embeddings_zero_bias():
    rng = np.random.default_rng(1)
    g = CountyGraph(["a", "b"], [("a", "b")])
    layer = SageLayer(2, 3, "mean", rng)
    layer.combine.bias.data[...] = 0.0
    block = full_block(g, g.node_ids, layers=1)
    out = gnn_forward([layer], block, Tensor(np.zeros((2, 2))))
    assert np.array_equal(out.data, np.zeros((2, 3)))


@pytest.mark.parametrize("aggregator", ["mean", "pool"])
def test_dense_oracle_equivalence_random_graphs(aggregator):
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        ids = [f"{i:05d}" for i in range(n)]
        edges = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = CountyGraph(ids, edges)
        stack = build_sage_stack(3, 4, aggregator, rng)
        x = rng.normal(size=(n, 3))
        got = sampled_full_fanout(g, stack, x, aggregator)
        want = dense_sage_oracle(g, _stack_params(stack), x, aggregator)
        assert np.array_equal(got, want), f"trial {trial} diverged"


def test_sample_block_caps_at_available_neighbors():
    g = CountyGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    block = sample_block(g, ["a"], fanout=10, layers=1, edge_dropout=0.0,
                         rng=np.random.default_rng(0))
    assert block.layers[0].counts.tolist() == [3]


def test_sample_block_uniform_selection():
    g = CountyGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    rng = np.random.default_rng(7)
    hits = {1: 0, 2: 0, 3: 0}
    n = 100_000
    for _ in range(n):
        block = sample_block(g, ["a"], fanout=1, layers=1, edge_dropout=0.0, rng=rng)
        lb = block.layers[0]
        chosen = int(lb.src_nodes[lb.edge_src[0]])
        hits[chosen] += 1
    for count in hits.values():
        assert abs(count / n - 1 / 3) < 0.01


def test_sample_block_edge_dropout_survival_rate():
    g = CountyGraph(["a", "b"], [("a", "b")])
    rng = np.random.default_rng(9)
    survived = 0
    n = 100_000
    for _ in range(n):
        block = sample_block(g, ["a"], fanout=None, layers=1, edge_dropout=0.1, rng=rng)
        survived += int(block.layers[0].counts[0])
    assert abs(survived / n - 0.9) < 0.01


def test_sample_block_deterministic_under_seed():
    g = CountyGraph([f"{i}" for i in range(6)],
                    [(f"{i}", f"{j}") for i in range(6) for j in range(i + 1, 6)])

    def draw():
        block = sample_block(g, ["0", "3"], fanout=2, layers=2, edge_dropout=0.2,
                             rng=np.random.default_rng(123))
        return [
            (lb.src_nodes.tolist(), lb.edge_src.tolist(), lb.edge_dst.tolist())
            for lb in block.layers
        ]

    assert draw() == draw()


def test_gnn_forward_isolated_node_degenerate():
    rng = np.random.default_rng(3)
    g = CountyGraph(["x"], [])
    stack = build_sage_stack(2, 3, "mean", rng)
    block = full_block(g, ["x"])
    x = rng.normal(size=(1, 2))
    out = gnn_forward(stack, block, Tensor(x)).data

    z = x
    for layer in stack:
        w, b = layer.combine.weight.data, layer.combine.bias.data
        z = np.maximum(np.concatenate([z, np.zeros_like(z)], axis=1) @ w.T + b, 0.0)
    assert np.array_equal(out, z)


def test_path_graph_second_hop_reach():
    rng = np.random.default_rng(4)
    g = CountyGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    stack = build_sage_stack(2, 3, "mean", rng)
    x = rng.normal(size=(3, 2))
    x_zero_c = x.copy()
    x_zero_c[2] = 0.0

    def forward(vals, layers):
        block = full_block(g, ["a"], layers=layers)
        return gnn_forward(stack[:layers], block, Tensor(vals[block.input_nodes])).data

    # one layer: county a never sees c
    assert np.array_equal(forward(x, 1), forward(x_zero_c, 1))
    # two layers: information from c reaches a
    assert not np.array_equal(forward(x, 2), forward(x_zero_c, 2))


def test_gradient_flows_to_two_hop_neighbor():
    rng = np.random.default_rng(5)
    g = CountyGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    stack = build_sage_stack(2, 3, "mean", rng)
    block = full_block(g, ["a"])
    base = Tensor(rng.normal(size=(len(block.input_nodes), 2)), requires_grad=True)
    gnn_forward(stack, block, base).sum().backward()
    c_row = list(block.input_nodes).index(g.index["c"])
    assert np.any(base.grad[c_row] != 0.0)


def test_permuting_storage_order_leaves_outputs_unchanged():
    rng = np.random.default_rng(6)
    ids = ["p", "q", "r", "s"]
    edges = [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")]
    feats = {c: rng.normal(size=3) for c in ids}
    outs = {}
    for node_order in (ids, list(reversed(ids))):
        g = CountyGraph(node_order, edges)
        stack = build_sage_stack(3, 4, "mean", np.random.default_rng(99))
        block = full_block(g, ["p"])
        base = Tensor(np.stack([feats[g.node_ids[i]] for i in block.input_nodes]))
        outs[tuple(node_order)] = gnn_forward(stack, block, base).data
    a, b = outs.values()
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("aggregator", ["mean", "pool"])
def test_sage_parameter_gradients(aggregator):
    rng = np.random.default_rng(8)
    g = CountyGraph(["a", "b", "c", "d"],
                    [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
    stack = build_sage_stack(2, 3, aggregator, rng)
    block = full_block(g, g.node_ids)
    base = Tensor(rng.normal(size=(4, 2)))
    params = {}
    for i, layer in enumerate(stack):
        params.update(layer.parameters(f"l{i}"))
    check_param_gradients(
        list(params.values()),
        lambda: gnn_forward(stack, block, base).sum(),
        rtol=1e-4,
    )


def test_sample_block_requires_seeds_and_valid_dropout():
    g = CountyGraph(["a"], [])
    with pytest.raises(ValueError):
        sample_block(g, [], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_block(g, ["a"], edge_dropout=1.0, rng=np.random.default_rng(0))


def _segment_edges():
    """Edges sorted by (dst, src) over 7 destinations; 0, 3 and 6 have none."""
    pairs = [(1, 0), (1, 2), (1, 5), (2, 4), (4, 0), (4, 1), (4, 3), (4, 6), (5, 6)]
    edge_dst = np.array([d for d, _ in pairs], dtype=np.intp)
    edge_src = np.array([s for _, s in pairs], dtype=np.intp)
    return edge_src, edge_dst, np.bincount(edge_dst, minlength=7), 7


def test_segment_max_matches_oracle_with_ties_and_isolated_destinations():
    edge_src, edge_dst, counts, n_dst = _segment_edges()
    rng = np.random.default_rng(3)
    x = rng.integers(-2, 3, size=(7, 5)).astype(np.float64)  # many ties
    x[2] = x[0]  # destination 1 ties row for row between sources 0 and 2,
    x[5] = x[0] - 1.0  # and its third source never reaches the max
    x[0, 1], x[2, 1] = 0.0, -0.0  # a signed-zero tie: the first edge's zero wins
    weights = Tensor(rng.normal(size=(n_dst, 5)))
    results = []
    for fn in (_segment_max, reference_segment_max):
        leaf = Tensor(x.copy(), requires_grad=True)
        out = fn(leaf, edge_src, edge_dst, counts, n_dst)
        (out * weights).sum().backward()
        results.append((out.data, leaf.grad))
    (out, grad), (ref_out, ref_grad) = results
    assert out.tobytes() == ref_out.tobytes()
    assert np.array_equal(grad, ref_grad)
    assert not out[[0, 3, 6]].any()
    assert not grad[2].any()  # every tie at destination 1 goes to source 0


def test_segment_max_gradient_and_empty_edge_list():
    edge_src, edge_dst, counts, n_dst = _segment_edges()
    x = np.random.default_rng(4).normal(size=(7, 3))
    check_tensor_gradients(
        lambda t: (_segment_max(t, edge_src, edge_dst, counts, n_dst).tanh()).sum(), [x])
    none = np.array([], dtype=np.intp)
    out = _segment_max(Tensor(x), none, none, np.zeros(4, dtype=np.intp), 4)
    assert out.shape == (4, 3) and not out.data.any()


@pytest.mark.parametrize("fanout,dropout,allowed", [(3, 0.3, True), (None, 0.0, False),
                                                    (2, 0.5, False)])
def test_sample_block_matches_per_edge_builder(fanout, dropout, allowed):
    rng = np.random.default_rng(11)
    ids = [f"c{i:02d}" for i in range(40)]
    edges = [(ids[a], ids[b]) for a, b in rng.integers(0, 40, size=(120, 2))]
    g = CountyGraph(ids, edges)
    seeds = list(rng.choice(ids, size=9, replace=False))
    allowed_nodes = set(rng.choice(ids, size=30, replace=False)) | set(seeds) if allowed else None
    rngs = [np.random.default_rng(7), np.random.default_rng(7)]
    blocks = [build(g, seeds, fanout=fanout, layers=2, edge_dropout=dropout, rng=r,
                    allowed_nodes=allowed_nodes)
              for build, r in zip((sample_block, reference_sample_block), rngs)]
    new, ref = blocks
    assert np.array_equal(new.seed_nodes, ref.seed_nodes)
    for lb, rb in zip(new.layers, ref.layers, strict=True):
        for name in ("src_nodes", "dst_nodes", "self_rows", "edge_src", "edge_dst", "counts"):
            a, b = getattr(lb, name), getattr(rb, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert rngs[0].random() == rngs[1].random()  # same number of draws
