import numpy as np
import pytest

from linecontrast import encoder
from linecontrast.autodiff import Incidence, ShapeMismatch, Tape, constant
from linecontrast.encoder import (
    DualHelixParams,
    EmptyGraph,
    EncoderConfig,
    VocabOutOfRange,
    edge_pair_representation,
    embed_pair,
    encode_batch,
    gin_layer,
    param_shapes,
    project,
    readout,
)
from linecontrast.gradcheck import _analytic_grads, _objective_case
from linecontrast.graphs import make_graph, permute_nodes, to_line_graph
from linecontrast.pipeline import Batch
from linecontrast.synth import random_molecular_graph

from conftest import path3, single_edge, star, triangle

CFG = EncoderConfig(depth=3, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                    bond_type_vocab=4, bond_direction_vocab=3)


def batch_of(*graphs, cfg=CFG):
    return Batch.build([(g, to_line_graph(g)) for g in graphs])


def params_for(cfg=CFG, seed=0):
    return DualHelixParams.initialize(cfg, seed)


def rand_graph(seed, cfg=CFG):
    return random_molecular_graph(seed, (5, 9), 3, vocab=cfg.vocab)


# --- plain-loop reference implementation (kept independent of the encoder) ---

def embed_rows(feats, table_a, table_b, d):
    return np.array([table_a[x] + table_b[y] for x, y in feats]).reshape(-1, d)


def gin_loop(graph, h, eattr, arrays, helix, c):
    out = np.zeros_like(h)
    for v in range(graph.num_nodes):
        acc = h[v].copy()
        for k, (x, y) in enumerate(graph.edges):
            if x == v:
                acc = acc + h[y] + eattr[k]
            elif y == v:
                acc = acc + h[x] + eattr[k]
        acc = acc + arrays[f"{helix}.layer{c}.self_loop"][0]
        z = np.maximum(acc @ arrays[f"{helix}.layer{c}.mlp1.w"]
                       + arrays[f"{helix}.layer{c}.mlp1.b"][0], 0.0)
        out[v] = np.maximum(z @ arrays[f"{helix}.layer{c}.mlp2.w"]
                            + arrays[f"{helix}.layer{c}.mlp2.b"][0], 0.0)
    return out


def reference_dual_forward(g, view, arrays, cfg):
    """Loop re-implementation of the lockstep dual forward pass."""
    lg = view.graph
    d = cfg.hidden_dim
    g_hist = [embed_rows(g.node_features, arrays["graph.embed.atomic"],
                         arrays["graph.embed.chirality"], d)]
    l_hist = [embed_rows(lg.node_features, arrays["line.embed.bond_type"],
                         arrays["line.embed.bond_direction"], d)]
    origin_feats = [g.node_features[v] for v in view.edge_origin]
    for c in range(cfg.depth):
        if c == 0:
            g_e = embed_rows(g.edge_features, arrays["graph.layer0.edge.bond_type"],
                             arrays["graph.layer0.edge.bond_direction"], d)
            l_e = embed_rows(origin_feats, arrays["line.layer0.edge.atomic"],
                             arrays["line.layer0.edge.chirality"], d)
        elif cfg.edge_fusion:
            g_e = l_hist[c - 1]
            l_e = np.array([g_hist[c - 1][v] for v in view.edge_origin]).reshape(-1, d)
        else:
            g_e = embed_rows(g.edge_features, arrays[f"graph.layer{c}.edge.bond_type"],
                             arrays[f"graph.layer{c}.edge.bond_direction"], d)
            l_e = embed_rows(origin_feats, arrays[f"line.layer{c}.edge.atomic"],
                             arrays[f"line.layer{c}.edge.chirality"], d)
        g_hist.append(gin_loop(g, g_hist[c], g_e, arrays, "graph", c))
        l_hist.append(gin_loop(lg, l_hist[c], l_e, arrays, "line", c))
    return g_hist, l_hist


class TestEmbedInputs:
    """Layer-0 lookups on the batch arrays, and the per-batch vocabulary
    check in encode_batch."""

    def test_feature_zero_zero_sums_first_rows(self):
        g = make_graph([[0, 0], [0, 0]], [(0, 1)], [[0, 0]])
        c = params_for().as_constants()
        nodes = embed_pair(batch_of(g).node_feat, c["graph.embed.atomic"],
                           c["graph.embed.chirality"])
        expected = c["graph.embed.atomic"].data[0] + c["graph.embed.chirality"].data[0]
        assert np.allclose(nodes.data[0], expected, atol=1e-15)

    def test_identical_features_identical_vectors(self):
        g = make_graph([[2, 1], [2, 1], [0, 0]], [(0, 2), (1, 2)], [[1, 0], [1, 0]])
        batch = batch_of(g)
        c = params_for().as_constants()
        nodes = embed_pair(batch.node_feat, c["graph.embed.atomic"], c["graph.embed.chirality"])
        assert np.array_equal(nodes.data[0], nodes.data[1])
        # the two edges carry the same bond features too
        line_nodes = embed_pair(batch.edge_feat, c["line.embed.bond_type"],
                                c["line.embed.bond_direction"])
        assert np.array_equal(line_nodes.data[0], line_nodes.data[1])

    def test_line_node_init_is_bond_embedding(self):
        g = path3()
        p = params_for()
        c = p.as_constants()
        line_nodes = embed_pair(batch_of(g).edge_feat, c["line.embed.bond_type"],
                                c["line.embed.bond_direction"])
        bt, bd = g.edge_features[0]
        expected = p.arrays["line.embed.bond_type"][bt] + p.arrays["line.embed.bond_direction"][bd]
        assert np.allclose(line_nodes.data[0], expected, atol=1e-15)

    def test_vocab_out_of_range(self):
        g = make_graph([[11, 0], [0, 0]], [(0, 1)], [[0, 0]])  # atomic 11 >= vocab 6
        with pytest.raises(VocabOutOfRange, match="index 11"):
            encode_batch(batch_of(g), params_for().as_constants(), CFG)

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("field, bad", [(0, 4), (1, 3)], ids=["bond_type", "bond_direction"])
    def test_bond_vocab_out_of_range(self, fusion, field, bad):
        # bond type vocabulary 4, bond direction vocabulary 3
        cfg = EncoderConfig(depth=3, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3, edge_fusion=fusion)
        feat = [1, 1]
        feat[field] = bad
        g = make_graph([[0, 0], [1, 0], [2, 1]], [(0, 1), (1, 2)], [[0, 0], feat])
        with pytest.raises(VocabOutOfRange, match=f"edge field {field}: index {bad}"):
            encode_batch(batch_of(g, cfg=cfg), params_for(cfg).as_constants(), cfg)


class TestGinLayer:
    def test_each_call_records_one_tape_node(self, monkeypatch):
        tape = Tape()
        params = params_for().watched(tape)
        added = []

        def counted(h, attr, inc, line, params, layer):
            before = len(tape._ops)
            out = gin_layer(h, attr, inc, line, params, layer)
            added.append(len(tape._ops) - before)
            return out

        monkeypatch.setattr(encoder, "gin_layer", counted)
        encode_batch(batch_of(rand_graph(3), rand_graph(4)), params, CFG)
        assert added == [1] * (2 * CFG.depth)

    def test_isolated_node_sees_only_self_and_loop(self):
        # node 2 meets no edge, so the aggregation the encoder derives from
        # the edge list must leave it its own state and the self-loop
        cfg = EncoderConfig(depth=1, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3)
        g = make_graph([[1, 0], [2, 1], [4, 2]], [(0, 1)], [[3, 1]])
        p = params_for(cfg)
        enc = encode_batch(batch_of(g, cfg=cfg), p.as_constants(), cfg)
        acc = (p.arrays["graph.embed.atomic"][4] + p.arrays["graph.embed.chirality"][2]
               + p.arrays["graph.layer0.self_loop"][0])
        z = np.maximum(acc @ p.arrays["graph.layer0.mlp1.w"] + p.arrays["graph.layer0.mlp1.b"][0], 0)
        expected = np.maximum(z @ p.arrays["graph.layer0.mlp2.w"] + p.arrays["graph.layer0.mlp2.b"][0], 0)
        np.testing.assert_allclose(enc.node_embeddings.data[2], expected, rtol=0, atol=1e-12)

    def test_symmetric_pair_produces_identical_rows(self):
        g = make_graph([[1, 1], [1, 1]], [(0, 1)], [[2, 0]])
        enc = encode_batch(batch_of(g), params_for().as_constants(), CFG)
        assert np.allclose(enc.node_embeddings.data[0], enc.node_embeddings.data[1],
                           atol=1e-12)

    def test_matches_loop_oracle_on_random_graph(self):
        g = rand_graph(11)
        p = params_for(seed=4)
        d = CFG.hidden_dim
        h0 = embed_rows(g.node_features, p.arrays["graph.embed.atomic"],
                        p.arrays["graph.embed.chirality"], d)
        e0 = embed_rows(g.edge_features, p.arrays["graph.layer0.edge.bond_type"],
                        p.arrays["graph.layer0.edge.bond_direction"], d)
        inc = Incidence(g.edges, g.num_nodes, d)
        out = gin_layer(constant(h0), constant(e0), inc, False, p.as_constants(),
                        "graph.layer0")
        expected = gin_loop(g, h0, e0, p.arrays, "graph", 0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        # the line rule on the same incidence matrix against the loop over
        # the line graph's own arcs, each carrying its shared node's vector
        view = to_line_graph(g)
        l0 = embed_rows(g.edge_features, p.arrays["line.embed.bond_type"],
                        p.arrays["line.embed.bond_direction"], d)
        x0 = embed_rows(g.node_features, p.arrays["line.layer0.edge.atomic"],
                        p.arrays["line.layer0.edge.chirality"], d)
        out = gin_layer(constant(l0), constant(x0), inc, True, p.as_constants(), "line.layer0")
        expected = gin_loop(view.graph, l0, x0[list(view.edge_origin)], p.arrays,
                            "line", 0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


class TestEncodeDual:
    @pytest.mark.parametrize("fusion", [True, False])
    def test_matches_reference_loop_forward(self, fusion):
        cfg = EncoderConfig(depth=4, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3, edge_fusion=fusion)
        g = rand_graph(21, cfg)
        view = to_line_graph(g)
        p = params_for(cfg, seed=9)
        enc = encode_batch(Batch.build([(g, view)]), p.as_constants(), cfg)
        g_hist, l_hist = reference_dual_forward(g, view, p.arrays, cfg)
        assert np.allclose(enc.node_embeddings.data, g_hist[-1], atol=1e-12)
        assert np.allclose(enc.line_node_embeddings.data, l_hist[-1], atol=1e-12)

    @pytest.mark.parametrize("fusion", [True, False])
    def test_multi_graph_batch_matches_reference_loop_forward(self, fusion):
        # a degree-7 hub gives line edges weighted (deg - 1) = 6 and a line
        # node with six neighbours; the single edge's line node has none;
        # node 2 of the path with an isolated node meets no edge, so its
        # degree term -D h is zero at every layer
        cfg = EncoderConfig(depth=3, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3, edge_fusion=fusion)
        isolated = make_graph([[1, 0], [2, 1], [4, 2], [0, 1]], [(0, 1), (1, 3)],
                              [[3, 1], [0, 2]])
        graphs = [star(7), single_edge(), isolated, rand_graph(23, cfg)]
        views = [to_line_graph(g) for g in graphs]
        p = params_for(cfg, seed=10)
        enc = encode_batch(Batch.build(list(zip(graphs, views))), p.as_constants(), cfg)
        node_row = edge_row = 0
        for g, view in zip(graphs, views):
            g_hist, l_hist = reference_dual_forward(g, view, p.arrays, cfg)
            np.testing.assert_allclose(
                enc.node_embeddings.data[node_row:node_row + g.num_nodes], g_hist[-1],
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                enc.line_node_embeddings.data[edge_row:edge_row + g.num_edges], l_hist[-1],
                rtol=0, atol=1e-12)
            node_row += g.num_nodes
            edge_row += g.num_edges

    def test_depth_one_ignores_the_other_helix(self):
        cfg = EncoderConfig(depth=1, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3)
        g = rand_graph(5, cfg)
        batch = batch_of(g, cfg=cfg)
        p1 = params_for(cfg, seed=0)
        p2 = params_for(cfg, seed=1)
        # splice p2's line helix into p1: the graph side must not notice
        mixed = {k: (p2.arrays[k] if k.startswith("line.") else v).copy()
                 for k, v in p1.arrays.items()}
        mixed_params = DualHelixParams(cfg, 0, mixed)
        a = encode_batch(batch, p1.as_constants(), cfg)
        b = encode_batch(batch, mixed_params.as_constants(), cfg)
        assert np.array_equal(a.node_embeddings.data, b.node_embeddings.data)
        assert not np.array_equal(a.line_node_embeddings.data, b.line_node_embeddings.data)

    def test_first_fused_layer_reads_line_initial_state(self):
        # at the second update the graph-side edge attribute is the line
        # helix's layer-0 vector, checked through the reference forward
        cfg = EncoderConfig(depth=2, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3)
        g = path3()
        view = to_line_graph(g)
        p = params_for(cfg, seed=3)
        enc = encode_batch(Batch.build([(g, view)]), p.as_constants(), cfg)
        d = cfg.hidden_dim
        g_hist, l_hist = reference_dual_forward(g, view, p.arrays, cfg)
        line_init = embed_rows(view.graph.node_features, p.arrays["line.embed.bond_type"],
                               p.arrays["line.embed.bond_direction"], d)
        manual = gin_loop(g, g_hist[1], line_init, p.arrays, "graph", 1)
        assert np.allclose(enc.node_embeddings.data, manual, atol=1e-12)

    def test_zeroing_line_initial_state_changes_graph_output(self):
        cfg = EncoderConfig(depth=2, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                            bond_type_vocab=4, bond_direction_vocab=3)
        g = rand_graph(13, cfg)
        batch = batch_of(g, cfg=cfg)
        p = params_for(cfg, seed=2)
        zeroed = {k: (np.zeros_like(v) if k.startswith("line.embed.") else v.copy())
                  for k, v in p.arrays.items()}
        a = encode_batch(batch, p.as_constants(), cfg)
        b = encode_batch(batch, DualHelixParams(cfg, 0, zeroed).as_constants(), cfg)
        assert not np.allclose(a.node_embeddings.data, b.node_embeddings.data, atol=1e-9)

    def test_zeroed_line_helix_degenerates_to_single_helix(self):
        # with the line helix frozen at zero output, the graph helix is a
        # plain edge-embedded stack whose fused attributes are all zero
        g = rand_graph(17)
        view = to_line_graph(g)
        p = params_for(seed=6)
        arrays = {k: (np.zeros_like(v) if k.startswith("line.") else v.copy())
                  for k, v in p.arrays.items()}
        enc = encode_batch(Batch.build([(g, view)]),
                           DualHelixParams(CFG, 0, arrays).as_constants(), CFG)
        d = CFG.hidden_dim
        h = embed_rows(g.node_features, arrays["graph.embed.atomic"],
                       arrays["graph.embed.chirality"], d)
        for c in range(CFG.depth):
            if c == 0:
                eattr = embed_rows(g.edge_features, arrays["graph.layer0.edge.bond_type"],
                                   arrays["graph.layer0.edge.bond_direction"], d)
            else:
                eattr = np.zeros((g.num_edges, d))
            h = gin_loop(g, h, eattr, arrays, "graph", c)
        assert np.allclose(enc.node_embeddings.data, h, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        g = rand_graph(29)
        perm = rng.permutation(g.num_nodes).tolist()
        pg = permute_nodes(g, perm)
        p = params_for(seed=8)
        a = encode_batch(batch_of(g), p.as_constants(), CFG)
        b = encode_batch(batch_of(pg), p.as_constants(), CFG)
        for old, new in enumerate(perm):
            assert np.allclose(a.node_embeddings.data[old],
                               b.node_embeddings.data[new], atol=1e-10)
        assert np.allclose(a.graph_repr.data, b.graph_repr.data, atol=1e-10)

    def test_batch_independence(self):
        graphs = [rand_graph(s) for s in (31, 37, 41)]
        p = params_for(seed=5)
        joint = encode_batch(batch_of(*graphs), p.as_constants(), CFG)
        row = 0
        for i, g in enumerate(graphs):
            solo = encode_batch(batch_of(g), p.as_constants(), CFG)
            n = g.num_nodes
            assert np.allclose(joint.node_embeddings.data[row:row + n],
                               solo.node_embeddings.data, atol=1e-12)
            assert np.allclose(joint.graph_repr.data[i], solo.graph_repr.data[0],
                               atol=1e-12)
            row += n

    def test_deterministic(self):
        g = rand_graph(43)
        p = params_for(seed=7)
        a = encode_batch(batch_of(g), p.as_constants(), CFG)
        b = encode_batch(batch_of(g), p.as_constants(), CFG)
        assert np.array_equal(a.node_embeddings.data, b.node_embeddings.data)
        assert np.array_equal(a.z_graph.data, b.z_graph.data)

    def test_single_edge_graph_encodes(self):
        enc = encode_batch(batch_of(single_edge()), params_for().as_constants(), CFG)
        assert enc.line_node_embeddings.shape == (1, CFG.hidden_dim)


class TestReadout:
    def test_single_node_graph_returns_its_row(self, rng):
        h = rng.standard_normal((1, 4))
        out = readout(Tape().watch(h), np.array([0, 1]))
        assert np.allclose(out.data, h, atol=1e-15)

    def test_identical_rows_return_that_vector(self):
        h = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        out = readout(Tape().watch(h), np.array([0, 4]))
        assert np.allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-15)

    def test_matches_loop_means(self, rng):
        h = rng.standard_normal((10, 6))
        offsets = np.array([0, 3, 7, 10])
        out = readout(Tape().watch(h), offsets)
        for i in range(3):
            mean = h[offsets[i]:offsets[i + 1]].mean(axis=0)
            assert np.allclose(out.data[i], mean, atol=1e-12)

    def test_empty_graph_rejected(self, rng):
        with pytest.raises(EmptyGraph):
            readout(Tape().watch(rng.standard_normal((2, 3))), np.array([0, 2, 2]))


class TestProject:
    def test_identity_head_passes_non_negative_inputs(self):
        h = np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        eye = constant(np.eye(4))
        out = project(constant(h), eye, eye)
        assert np.allclose(out.data, h, atol=1e-15)

    def test_zero_second_map_kills_output(self, rng):
        out = project(constant(rng.standard_normal((3, 4))),
                      constant(rng.standard_normal((4, 4))),
                      constant(np.zeros((4, 4))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_matches_two_affine_loop(self, rng):
        h = rng.standard_normal((5, 4))
        w1 = rng.standard_normal((4, 4))
        w2 = rng.standard_normal((4, 4))
        out = project(constant(h), constant(w1), constant(w2))
        expected = np.maximum(h @ w1, 0) @ w2
        assert np.allclose(out.data, expected, atol=1e-12)


class TestEdgePairRepresentation:
    def test_identical_endpoints_identical_rows(self, rng):
        x = rng.standard_normal(4)
        h = np.tile(x, (3, 1))
        edges = np.array([[0, 1], [1, 2]])
        w = rng.standard_normal((8, 4))
        b = rng.standard_normal((1, 4))
        out = edge_pair_representation(constant(h), edges, constant(w), constant(b))
        assert np.allclose(out.data[0], out.data[1], atol=1e-15)
        expected = np.concatenate([x, x]) @ w + b[0]
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_matches_per_edge_loop(self, rng):
        g = rand_graph(47)
        h = rng.standard_normal((g.num_nodes, 4))
        w = rng.standard_normal((8, 4))
        b = rng.standard_normal((1, 4))
        edges = np.array(g.edges)
        out = edge_pair_representation(constant(h), edges, constant(w), constant(b))
        for k, (u, v) in enumerate(g.edges):
            expected = np.concatenate([h[u], h[v]]) @ w + b[0]
            assert np.allclose(out.data[k], expected, atol=1e-12)


class TestParams:
    def test_initialization_deterministic(self):
        a = params_for(seed=0)
        b = params_for(seed=0)
        assert all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)

    def test_shapes_match_specs(self):
        p = params_for()
        shapes = param_shapes(CFG)
        assert set(p.arrays) == set(shapes)
        assert all(tuple(p.arrays[k].shape) == shapes[k] for k in shapes)

    @pytest.mark.parametrize("name, edit", [
        ("proj.w1", lambda a: a.pop("proj.w1")),
        ("proj.w3", lambda a: a.update({"proj.w3": np.zeros((32, 32))})),
        ("proj.w1", lambda a: a.update({"proj.w1": np.zeros((3, 3))})),
        ("edge_rep.b", lambda a: (a.clear(), a.update({"x": np.zeros((2, 2))}))),
    ], ids=["missing", "unknown", "misshaped", "a lone array"])
    def test_arrays_must_match_the_config_layout(self, name, edit):
        arrays = dict(params_for().arrays)
        edit(arrays)
        with pytest.raises(ShapeMismatch, match=f"array {name} "):
            DualHelixParams(CFG, 0, arrays)

    @pytest.mark.parametrize("fusion, count", [(True, 62), (False, 78)])
    def test_fusion_drops_the_edge_tables_of_layers_past_the_first(self, fusion, count):
        shapes = param_shapes(EncoderConfig(edge_fusion=fusion))
        assert len(shapes) == count
        edge_layers = {name.split(".")[1] for name in shapes if ".edge." in name}
        assert edge_layers == ({"layer0"} if fusion else {f"layer{c}" for c in range(5)})

    def test_fused_arrays_equal_their_unfused_draws(self):
        # every array is drawn in the fusion-off order, so dropping the
        # unread tables moves no other parameter
        fused = params_for(EncoderConfig(), seed=3).arrays
        unfused = params_for(EncoderConfig(edge_fusion=False), seed=3).arrays
        assert set(fused) < set(unfused)
        assert all(np.array_equal(arr, unfused[name]) for name, arr in fused.items())

    @pytest.mark.parametrize("seed, fusion", [(0, True), (1, False)],
                             ids=["fusion on", "fusion off"])
    def test_every_parameter_gets_a_gradient(self, seed, fusion):
        grads = _analytic_grads(*_objective_case(seed, edge_fusion=fusion))
        assert [name for name, g in grads.items() if not g.any()] == []

    def test_embedding_bound_follows_hidden_dim(self):
        p = params_for()
        bound = (1.0 / CFG.hidden_dim) ** 0.5
        table = p.arrays["graph.embed.atomic"]
        assert np.abs(table).max() <= bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(depth=0)
        # integer fields take ints only, and edge_fusion a bool only
        for bad in ({"depth": 2.5}, {"hidden_dim": True}, {"atomic_vocab": 3.0},
                    {"edge_fusion": 1}):
            with pytest.raises(ValueError):
                EncoderConfig(**bad)
        with pytest.raises(ValueError):
            EncoderConfig(tau=0.0)

    def test_rejected_value_is_echoed_short(self):
        with pytest.raises(ValueError) as err:
            EncoderConfig(depth="x" * 100_000)
        assert str(err.value) == ("depth must be an int of at least 1, "
                                  "got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'")
        with pytest.raises(ValueError) as err:
            EncoderConfig(tau=-10.0 ** 300)
        assert str(err.value) == "tau must be positive and finite, got -1e+300"
