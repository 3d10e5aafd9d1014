"""County adjacency graph and 2-layer neighborhood message passing.

Counties form an undirected graph (bordering counties share an edge).
Each layer combines a county's own embedding with an aggregate of its
sampled neighbors' embeddings — arithmetic mean, or elementwise max over
a learned per-neighbor transform ("pool") — then applies a linear map and
relu. Mini-batch training samples a capped number of neighbors per node
per layer after dropping each incident edge with a fixed probability;
inference uses the full neighborhood with no dropout and is
deterministic. Inference builds one ``full_block`` over all of a target
year's seeds, so each input county is embedded once per window year and
the layers run over the whole block in one pass.

Aggregation sums run over neighbors in ascending node order, so a sampled
forward with full fanout reproduces a dense full-graph forward bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from yieldgraph.autodiff import ShapeError, apply_op, concat, take_rows
from yieldgraph.layers import Dense

AGGREGATORS = ("mean", "pool")


class GraphFormatError(ValueError):
    """Adjacency input violates the edge-list format."""


class CountyGraph:
    """Symmetric adjacency over county identifiers, no self-loops."""

    def __init__(self, node_ids, edges):
        ids = list(node_ids)
        if len(set(ids)) != len(ids):
            raise GraphFormatError("duplicate node ids")
        self.node_ids = ids
        self.index = {c: i for i, c in enumerate(ids)}
        neigh = [set() for _ in ids]
        for a, b in edges:
            ia, ib = self.index[a], self.index[b]
            if ia == ib:
                continue  # census-style lists carry self rows; drop them
            neigh[ia].add(ib)
            neigh[ib].add(ia)
        self.neighbors = [np.array(sorted(s), dtype=np.intp) for s in neigh]

    @property
    def n(self):
        return len(self.node_ids)


def load_graph(path, node_ids):
    """Parse a tab-separated undirected edge list (# comments allowed) over
    the counties ``node_ids``.

    Unidirectional edges are symmetrized and duplicates collapse. Edges
    naming unknown counties are an error; isolated counties are retained.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise GraphFormatError(f"{path}:{lineno}: expected FIPS_A<TAB>FIPS_B, got {raw!r}")
            a, b = parts
            for c in (a, b):
                if c not in node_ids:
                    raise GraphFormatError(f"{path}:{lineno}: unknown county id {c!r}")
            edges.append((a, b))
    if not edges:
        raise GraphFormatError(f"{path}: no edges found")
    return CountyGraph(sorted(node_ids), edges)


# -- aggregation primitives ---------------------------------------------------


def _segment_mean(x, edge_src, edge_dst, counts, n_dst):
    """Mean of x rows grouped by destination; empty groups stay zero.

    Edges are ordered by (dst, src), and np.add.at accumulates them
    sequentially in that order.
    """
    d = x.data.shape[1]
    safe = np.maximum(counts, 1).astype(np.float64)

    def vjp(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, edge_src, g[edge_dst] / safe[edge_dst, None])
        return (dx,)

    out = np.zeros((n_dst, d))
    np.add.at(out, edge_dst, x.data[edge_src])
    out /= safe[:, None]
    return apply_op(out, (x,), vjp)


def _segment_max(x, edge_src, edge_dst, n_dst):
    """Elementwise max of x rows grouped by destination; empty groups are
    zero. Ties route gradient to the earliest edge (lowest source index
    within the sorted neighbor list).

    Edges arrive sorted by dst, so each destination's edges are one
    contiguous run: a max-reduce per run gives the maximum, and a
    min-reduce over the edge numbers that reach it gives the first edge
    holding it. Each output is read back from that edge's row."""
    d = x.data.shape[1]
    out = np.zeros((n_dst, d))
    argrow = np.full((n_dst, d), -1, dtype=np.intp)
    if edge_dst.size:
        starts = np.flatnonzero(np.r_[True, edge_dst[1:] != edge_dst[:-1]])
        rows = x.data[edge_src]
        seg_max = np.maximum.reduceat(rows, starts, axis=0)
        hit = rows == np.repeat(seg_max, np.diff(np.r_[starts, edge_dst.size]), axis=0)
        edge_no = np.where(hit, np.arange(edge_dst.size)[:, None], edge_dst.size)
        first = np.minimum.reduceat(edge_no, starts, axis=0)
        dsts = edge_dst[starts]
        out[dsts] = np.take_along_axis(rows, first, axis=0)
        argrow[dsts] = edge_src[first]

    def vjp(g):
        dx = np.zeros_like(x.data)
        valid = argrow >= 0
        rows = argrow[valid]
        cols = np.nonzero(valid)[1]
        np.add.at(dx, (rows, cols), g[valid])
        return (dx,)

    return apply_op(out, (x,), vjp)


# -- layers -------------------------------------------------------------------


class SageLayer:
    """One message-passing layer: relu(W . concat(self, aggregated))."""

    def __init__(self, in_dim, out_dim, aggregator, rng):
        if aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {aggregator!r}")
        self.aggregator = aggregator
        self.in_dim = in_dim
        self.combine = Dense(2 * in_dim, out_dim, rng)
        self.pool_transform = Dense(in_dim, in_dim, rng) if aggregator == "pool" else None

    def forward(self, src_embeddings, self_rows, edge_src, edge_dst, counts, n_dst):
        if src_embeddings.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"layer expects width {self.in_dim}, got {src_embeddings.data.shape[1]}"
            )
        if self.aggregator == "mean":
            agg = _segment_mean(src_embeddings, edge_src, edge_dst, counts, n_dst)
        else:
            transformed = self.pool_transform(src_embeddings).relu()
            agg = _segment_max(transformed, edge_src, edge_dst, n_dst)
        z = self.combine(concat([take_rows(src_embeddings, self_rows), agg], axis=1))
        return z.relu()

    def parameters(self, prefix):
        params = self.combine.parameters(f"{prefix}.combine")
        if self.pool_transform is not None:
            params.update(self.pool_transform.parameters(f"{prefix}.pool"))
        return params


# -- sampling -----------------------------------------------------------------


@dataclass
class LayerBlock:
    """Edges feeding one layer: destinations draw from source rows."""

    src_nodes: np.ndarray      # graph indices providing embeddings
    dst_nodes: np.ndarray      # graph indices produced by the layer
    self_rows: np.ndarray      # position of each dst within src_nodes
    edge_src: np.ndarray       # positions into src_nodes, sorted by (dst, src)
    edge_dst: np.ndarray       # positions into dst_nodes
    counts: np.ndarray         # sampled neighbor count per dst


@dataclass
class SampledBlock:
    """Per-layer sampled neighborhoods for a set of seed counties.

    layers[0] is the input-side layer; layers[-1] produces the seeds.
    """

    seed_nodes: np.ndarray
    layers: list = field(default_factory=list)

    @property
    def input_nodes(self):
        return self.layers[0].src_nodes


def _sample_neighbor_lists(graph, dst_nodes, fanout, edge_dropout, rng, allowed=None):
    """One sorted neighbor array per dst node; ``allowed`` is a boolean
    mask over graph nodes, or None for all."""
    sampled = []
    for i in dst_nodes:
        nbrs = graph.neighbors[i]
        if allowed is not None:
            nbrs = nbrs[allowed[nbrs]]
        if edge_dropout > 0.0 and nbrs.size:
            nbrs = nbrs[rng.random(nbrs.size) >= edge_dropout]
        if fanout is not None and nbrs.size > fanout:
            nbrs = rng.choice(nbrs, size=fanout, replace=False)
        sampled.append(np.sort(nbrs))
    return sampled


def sample_block(graph, seeds, fanout, layers, edge_dropout, rng, allowed_nodes=None):
    """Sample a multi-layer neighborhood block for the given seed counties.

    Per layer and per node independently: drop each incident edge with
    probability ``edge_dropout``, then take min(fanout, remaining)
    neighbors uniformly without replacement (``fanout=None`` keeps all).
    Isolated nodes yield empty neighbor sets. Deterministic under a fixed
    generator.
    """
    if not len(seeds):
        raise ValueError("sample_block needs at least one seed")
    if not 0.0 <= edge_dropout < 1.0:
        raise ValueError(f"edge_dropout must be in [0, 1), got {edge_dropout}")
    seed_idx = np.array(sorted({graph.index[c] for c in seeds}), dtype=np.intp)
    allowed = None
    if allowed_nodes is not None:
        allowed = np.zeros(graph.n, dtype=bool)
        allowed[[graph.index[c] for c in allowed_nodes]] = True

    block = SampledBlock(seed_nodes=seed_idx)
    reversed_layers = []
    dst = seed_idx
    for _ in range(layers):
        nbr_lists = _sample_neighbor_lists(graph, dst, fanout, edge_dropout, rng, allowed)
        src = np.unique(np.concatenate([dst] + nbr_lists))
        counts = np.array([len(n) for n in nbr_lists], dtype=np.intp)
        # src is sorted, so a node's row is its searchsorted position; each
        # dst's neighbors stay ascending: a fixed summation order
        reversed_layers.append(
            LayerBlock(
                src_nodes=src,
                dst_nodes=dst,
                self_rows=np.searchsorted(src, dst),
                edge_src=np.searchsorted(src, np.concatenate(nbr_lists)),
                edge_dst=np.repeat(np.arange(dst.size), counts),
                counts=counts,
            )
        )
        dst = src
    block.layers = list(reversed(reversed_layers))
    return block


def full_block(graph, seeds, layers, allowed_nodes=None):
    """Inference-mode block: full neighborhoods, no dropout."""
    return sample_block(
        graph, seeds, fanout=None, layers=layers, edge_dropout=0.0,
        rng=np.random.default_rng(0), allowed_nodes=allowed_nodes,
    )


def gnn_forward(stack, block, base_embeddings):
    """Run the layer stack over a sampled block.

    base_embeddings: Tensor [len(block.input_nodes), d] aligned with
    block.input_nodes. Returns [len(block.seed_nodes), out_dim].
    """
    if len(stack) != len(block.layers):
        raise ShapeError(f"stack depth {len(stack)} != block depth {len(block.layers)}")
    z = base_embeddings
    for layer, lb in zip(stack, block.layers):
        if z.data.shape[0] != lb.src_nodes.size:
            raise ShapeError(
                f"embeddings rows {z.data.shape[0]} != layer sources {lb.src_nodes.size}"
            )
        z = layer.forward(z, lb.self_rows, lb.edge_src, lb.edge_dst, lb.counts,
                          lb.dst_nodes.size)
    return z


def build_sage_stack(in_dim, hidden_dim, aggregator, rng):
    """The paper's two layers: in_dim -> hidden_dim -> hidden_dim."""
    return [SageLayer(in_dim, hidden_dim, aggregator, rng),
            SageLayer(hidden_dim, hidden_dim, aggregator, rng)]
