"""Per-layer metrics derived from a traced pass.

``.s`` is inclusive time (a span nested inside a span of the same name is
not counted twice), ``.self_s`` is time minus the time of child spans, and
``.calls`` is a call count; all are totals over one traced pass.  Counts
without a time suffix are computed from the inputs and outputs of the
traced calls (see ``tracing.MEASURES``).  ``<layer>.self_s`` sums the self
time of every span in that layer.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import LAYERS


def span_stats(spans: list) -> dict:
    """name -> [calls, inclusive seconds, self seconds]."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[2] += (end - start) - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry[1] += end - start
    return stats


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(spans: list, counts: dict, overhead_s: float) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    st = span_stats(spans)
    c = defaultdict(int, counts)

    def calls(name):
        return st[name][0] if name in st else 0

    def incl(name):
        return st[name][1] if name in st else 0.0

    def self_s(name):
        return st[name][2] if name in st else 0.0

    training_s = incl("node_embedding.sgns_train") + self_s("node_embedding.WalkletsModel.fit")
    rows = [
        ("graph_core.validate_graph.calls", calls("graph_core.validate_graph"), "count"),
        ("graph_core.validate_graph.s", incl("graph_core.validate_graph"), "s"),
        ("graph_core.build_graph.calls", calls("graph_core.build_graph"), "count"),
        ("graph_core.build_graph.s", incl("graph_core.build_graph"), "s"),
        ("graph_core.erdos_renyi_gnm.s", incl("graph_core.erdos_renyi_gnm"), "s"),
        ("graph_core.RandomSource.generator.calls", calls("graph_core.RandomSource.generator"), "count"),
        ("graph_core.RandomSource.generator.s", incl("graph_core.RandomSource.generator"), "s"),
        ("graph_core.Graph.neighbors.calls", c["graph_core.Graph.neighbors"], "count"),
        ("linalg.eigvals_symmetric.calls", calls("linalg.eigvals_symmetric"), "count"),
        ("linalg.eigvals_symmetric.s", incl("linalg.eigvals_symmetric"), "s"),
        ("linalg.eigvals_symmetric.n3_per_s",
         _ratio(c["linalg.eigvals_symmetric.n3"], incl("linalg.eigvals_symmetric")), "1/s"),
        ("linalg.randomized_svd.calls", calls("linalg.randomized_svd"), "count"),
        ("linalg.randomized_svd.s", incl("linalg.randomized_svd"), "s"),
        ("linalg.randomized_svd.nnz", c["linalg.randomized_svd.nnz"], "count"),
        ("node_embedding.generate_walks.s", incl("node_embedding.generate_walks"), "s"),
        ("node_embedding.walk_steps", c["node_embedding.walk_steps"], "count"),
        ("node_embedding.sgns_train.s", incl("node_embedding.sgns_train"), "s"),
        ("node_embedding.WalkletsModel.fit.self_s", self_s("node_embedding.WalkletsModel.fit"), "s"),
        ("node_embedding.pairs", c["node_embedding.pairs"], "count"),
        ("node_embedding.pairs_per_s", _ratio(c["node_embedding.pairs"], training_s), "1/s"),
        ("node_embedding.NetMfModel.fit.self_s", self_s("node_embedding.NetMfModel.fit"), "s"),
        ("community.LabelPropagationModel.fit.s", incl("community.LabelPropagationModel.fit"), "s"),
        ("community.ScdModel.fit.s", incl("community.ScdModel.fit"), "s"),
        ("community.SymNmfModel.fit.s", incl("community.SymNmfModel.fit"), "s"),
        ("community.SymNmfModel.iterations", c["community.SymNmfModel.iterations"], "count"),
        ("community.modularity.s", incl("community.modularity"), "s"),
        ("graph_embedding.SfModel.fit.self_s", self_s("graph_embedding.SfModel.fit"), "s"),
        ("graph_embedding.NetLsdModel.fit.self_s", self_s("graph_embedding.NetLsdModel.fit"), "s"),
        ("graph_embedding.WlSvdModel.fit.s", incl("graph_embedding.WlSvdModel.fit"), "s"),
        ("graph_embedding.WlSvdModel.fit.self_s", self_s("graph_embedding.WlSvdModel.fit"), "s"),
        ("graph_embedding.wl_features.s", incl("graph_embedding.wl_features"), "s"),
        ("graph_embedding.wl_features.labels", c["graph_embedding.wl_features.labels"], "count"),
        ("evaluation.softmax_fit.s", incl("evaluation.softmax_fit"), "s"),
        ("evaluation.softmax_fit.accepted_ratio",
         _ratio(c["evaluation.softmax_fit.accepted"], c["evaluation.softmax_fit.epochs"]), "1"),
        ("evaluation.auc.s", incl("evaluation.auc"), "s"),
        ("evaluation.nmi.s", incl("evaluation.nmi"), "s"),
        ("io.read_edge_list.s", incl("io.read_edge_list"), "s"),
        ("io.read_membership.s", incl("io.read_membership"), "s"),
        ("io.read_embedding_csv.s", incl("io.read_embedding_csv"), "s"),
        ("io.read_labels_csv.s", incl("io.read_labels_csv"), "s"),
        ("io.read_corpus_jsonl.s", incl("io.read_corpus_jsonl"), "s"),
        ("io.format_float.calls", c["io.format_float"], "count"),
        ("io.bytes_in", c["io.bytes_in"], "B"),
        ("io.bytes_out", c["io.bytes_out"], "B"),
        ("cli.process_s", c["cli.process_s"], "s"),
        ("cli.import_s", c["cli.import_s"], "s"),
        ("cli.interp_s",
         c["cli.process_s"] - c["cli.import_s"] - incl("cli.main") if c["cli.process_s"] else 0.0, "s"),
        ("cli.main.self_s", self_s("cli.main"), "s"),
    ]
    for layer in LAYERS:
        total = sum(entry[2] for name, entry in st.items() if name.startswith(layer + "."))
        rows.append((f"{layer}.self_s", total, "s"))
    rows.append(("trace.overhead_s", overhead_s, "s"))
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}
