import json
import re

import numpy as np
import pytest

from graphmine import (
    DuplicateEdge,
    EmptyCorpus,
    InputContractError,
    OutOfRangeNode,
    RandomSource,
    SelfLoop,
    embedding_text,
    format_float,
    read_corpus_jsonl,
    read_edge_list,
    read_embedding_csv,
    read_labels_csv,
    read_membership,
    write_edge_list,
    write_embedding_csv,
    write_labels_csv,
    write_membership,
)
from builders import random_connected, triangle_pair


# --- float formatting ---

def test_format_float_is_lossless():
    gen = RandomSource(0, 0).generator()
    values = list(gen.standard_normal(50) * 10.0 ** gen.integers(-12, 12, size=50))
    values += [0.1, 1.0 / 3.0, 1e-300, 2.0 ** 53, -0.0]
    for x in values:
        assert float(format_float(x)) == x


def test_format_float_keeps_short_values_short():
    assert format_float(0.5) == "0.5"
    assert format_float(2.0) == "2"


# --- edge lists ---

def test_edge_list_roundtrip(tmp_path):
    g = random_connected(12, 25, 3)
    path = tmp_path / "g.csv"
    write_edge_list(g, str(path))
    back = read_edge_list(str(path))
    assert back.node_count == g.node_count
    assert back.edges() == g.edges()


def test_edge_list_header_pins_isolated_tail_nodes(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("# nodes=5\n0,1\n")
    g = read_edge_list(str(path))
    assert g.node_count == 5
    assert g.edge_count == 1


def test_edge_list_infers_node_count_without_header(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1\n1,4\n")
    assert read_edge_list(str(path)).node_count == 5


def test_edge_list_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1;2\n")
    with pytest.raises(InputContractError, match=r"bad\.csv:2"):
        read_edge_list(str(path))
    path.write_text("0,x\n")
    with pytest.raises(InputContractError, match=r"bad\.csv:1"):
        read_edge_list(str(path))
    path.write_text("# nodes=many\n0,1\n")
    with pytest.raises(InputContractError, match="header"):
        read_edge_list(str(path))
    path.write_text("\n")
    with pytest.raises(InputContractError, match="no edges"):
        read_edge_list(str(path))


# --- memberships ---

def test_membership_roundtrip(tmp_path):
    mm = {0: 0, 1: 0, 2: 1, 3: 2}
    path = tmp_path / "m.json"
    write_membership(mm, str(path))
    assert read_membership(str(path)) == mm
    # keys are written in ascending node order
    assert path.read_text() == '{"0": 0, "1": 0, "2": 1, "3": 2}\n'


def test_membership_rejects_non_object_payloads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(InputContractError):
        read_membership(str(path))
    path.write_text('{"a": "b"}\n')
    with pytest.raises(InputContractError):
        read_membership(str(path))


# --- embeddings and labels ---

def test_embedding_roundtrip_is_exact(tmp_path):
    gen = RandomSource(5, 0).generator()
    matrix = gen.standard_normal((7, 4)) * 1e3
    path = tmp_path / "e.csv"
    write_embedding_csv(matrix, str(path))
    assert np.array_equal(read_embedding_csv(str(path)), matrix)


def test_embedding_text_formats_every_value_as_format_float():
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, np.inf, -np.inf]
    gen = RandomSource(6, 0).generator()
    for width in (1, 128):
        rows = -(-len(edge) // width) + 2
        values = gen.standard_normal(rows * width) * 10.0 ** gen.integers(-300, 300, rows * width)
        values[: len(edge)] = edge
        matrix = values.reshape(rows, width)
        expected = "".join(",".join(format_float(x) for x in row) + "\n" for row in matrix)
        assert embedding_text(matrix) == expected


def test_embedding_rejects_ragged_and_empty_files(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputContractError, match=r"e\.csv:2"):
        read_embedding_csv(str(path))
    path.write_text("")
    with pytest.raises(InputContractError):
        read_embedding_csv(str(path))


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "y.csv"
    write_labels_csv([0, 2, 1, 1], str(path))
    assert np.array_equal(read_labels_csv(str(path)), [0, 2, 1, 1])
    path.write_text("1\nx\n")
    with pytest.raises(InputContractError, match=r"y\.csv:2"):
        read_labels_csv(str(path))
    path.write_text("\n")
    with pytest.raises(InputContractError, match=r"y\.csv: empty label file$"):
        read_labels_csv(str(path))


# --- graph corpora ---

def _corpus_line(g, label=None, features=None):
    obj = {"edges": [[u, v] for u, v in g.edges()]}
    if label is not None:
        obj["label"] = label
    if features is not None:
        obj["features"] = features
    return json.dumps(obj)


def test_corpus_roundtrip_with_labels(tmp_path):
    path = tmp_path / "c.jsonl"
    g1, g2 = triangle_pair(), random_connected(5, 7, 1)
    path.write_text(_corpus_line(g1, 0) + "\n" + _corpus_line(g2, 1) + "\n")
    corpus = read_corpus_jsonl(str(path))
    assert len(corpus) == 2
    assert corpus.labels == [0, 1]
    assert corpus.features is None
    assert corpus.graphs[0].edges() == g1.edges()


def test_corpus_features_are_parsed_per_node(tmp_path):
    path = tmp_path / "c.jsonl"
    line = {"edges": [[0, 1]], "features": {"0": "a", "1": "b"}}
    for lines, want in [
        ([line], [{0: "a", 1: "b"}]),
        ([line, {"edges": [[0, 1]]}], [{0: "a", 1: "b"}, None]),  # only some lines
    ]:
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        corpus = read_corpus_jsonl(str(path))
        assert corpus.features == want


def test_corpus_rejects_malformed_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(InputContractError, match=r"c\.jsonl:1"):
        read_corpus_jsonl(str(path))
    path.write_text('{"edges": []}\n')
    with pytest.raises(InputContractError, match="non-empty"):
        read_corpus_jsonl(str(path))
    path.write_text('{"label": 1}\n')
    with pytest.raises(InputContractError, match="edges"):
        read_corpus_jsonl(str(path))
    path.write_text("")
    with pytest.raises(EmptyCorpus):
        read_corpus_jsonl(str(path))


@pytest.mark.parametrize(
    "reader, name, text, line",
    [
        (read_membership, "m.json", '{"0": 0,\n "1": }\n', 2),
        (read_embedding_csv, "e.csv", "1.0,2.0\n3.0,abc\n", 2),
        (read_embedding_csv, "e.csv", "1.0,2.0\n\nnan,1.0\n", 3),
        (read_embedding_csv, "e.csv", "1.0,-inf\n", 1),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]], "features": ["a", "b"]}\n', 1),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]]}\n{"edges": [[0, 1]], "features": {"x": "a"}}\n', 2),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]], "label": "one"}\n', 1),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]], "label": [1]}\n', 1),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]], "label": 1.7}\n', 1),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]]}\n{"edges": [[0, 1]], "label": true}\n', 2),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1.5]]}\n', 1),
        (read_membership, "m.json", '{"0": 0,\n "1": 1.7}\n', 2),
        (read_membership, "m.json", '{"0": true}\n', 1),
        (read_edge_list, "g.csv", b"\xff\xfe0,1\n", 1),
        (read_labels_csv, "y.csv", b"0\n1\n\xc3\n", 3),
        (read_membership, "m.json", '{"0": 0,\n "1": 1,\n "01": 0,\n "2": 1}\n', 3),
        (read_membership, "m.json", '{"1": 0,\n "0": 1,\n "1": 1}\n', 3),
        (read_corpus_jsonl, "c.jsonl",
         '{"edges": [[0, 1]]}\n{"edges": [[0, 1]], "features": {"0": "a", "1": "b", "00": "c"}}\n', 2),
        (read_corpus_jsonl, "c.jsonl", '{"edges": [[0, 1]], "features": {"1": "a", "1": "b"}}\n', 1),
    ],
    ids=["membership-json", "embedding-text", "embedding-nan", "embedding-inf",
         "features-list", "features-key", "label-text", "label-list",
         "label-float", "label-bool", "endpoint-float", "cluster-id-float",
         "cluster-id-bool", "edge-list-not-utf8", "labels-not-utf8", "membership-same-node",
         "membership-repeated-key", "features-same-node", "features-repeated-key"],
)
def test_readers_raise_typed_errors_with_line_context(tmp_path, reader, name, text, line):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(InputContractError, match=re.escape(f"{name}:{line}: ")):
        reader(str(path))


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ("[[0, 1], [1, 1]]", SelfLoop, "self-loop at node 1"),
        ("[[0, 1], [1, 0]]", DuplicateEdge, "edge (1,0) given more than once"),
        ("[[0, 1], [-1, 0]]", OutOfRangeNode, "edge (-1,0) outside 0..1"),
    ],
    ids=["self-loop", "repeated-pair", "negative-endpoint"],
)
def test_corpus_graph_errors_name_the_file_and_line(tmp_path, edges, error, message):
    path = tmp_path / "c.jsonl"
    path.write_text('{"edges": [[0, 1]]}\n{"edges": %s}\n' % edges)
    with pytest.raises(error, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        read_corpus_jsonl(str(path))


def test_corpus_labels_must_be_all_or_none(tmp_path):
    path = tmp_path / "c.jsonl"
    g = triangle_pair()
    path.write_text(_corpus_line(g, 0) + "\n" + _corpus_line(g) + "\n")
    with pytest.raises(InputContractError, match="every line or none"):
        read_corpus_jsonl(str(path))
