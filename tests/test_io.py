import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chains
from dampedchain import (
    DampingVector,
    DanglingPolicy,
    GraphFormat,
    IngestError,
    StochasticMatrix,
    ValidationError,
    ingest,
    load_damping,
)
from dampedchain.io import MATRIX_SLOT, dumps_with_matrix
from conftest import SPECIAL_FLOATS, square_matrices

DATA = Path(__file__).parent / "data"


def test_five_node_edge_list_reproduces_matrix():
    matrix, damping = ingest(DATA / "five_node_edges.txt")
    np.testing.assert_allclose(matrix.entries, chains.five_node_entries(), atol=1e-15)
    assert damping is None


def test_eight_node_edge_list_reproduces_matrix():
    matrix, _ = ingest(DATA / "eight_node_edges.txt")
    np.testing.assert_allclose(matrix.entries, chains.eight_node_entries(), atol=1e-15)


def test_duplicate_edges_collapse(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("1 2\n1 2\n2 1\n")
    matrix, _ = ingest(path)
    np.testing.assert_array_equal(matrix.entries, [[0.0, 1.0], [1.0, 0.0]])


class TestDangling:
    def _write(self, tmp_path):
        path = tmp_path / "dangling.txt"
        path.write_text("1 2\n2 3\n")  # node 3 has no out-links
        return path

    def test_reject_is_default(self, tmp_path):
        with pytest.raises(IngestError, match="no out-links"):
            ingest(self._write(tmp_path))

    def test_self_loop(self, tmp_path):
        matrix, _ = ingest(self._write(tmp_path), dangling=DanglingPolicy.SELF_LOOP)
        assert matrix.entries[2, 2] == 1.0

    def test_uniform_jump(self, tmp_path):
        matrix, _ = ingest(self._write(tmp_path), dangling=DanglingPolicy.UNIFORM_JUMP)
        np.testing.assert_allclose(matrix.entries[2], [1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize("dangling", list(DanglingPolicy))
@pytest.mark.parametrize("fmt", [None, GraphFormat.EDGE_LIST])
def test_a_choice_is_its_enum_member_or_its_value_string(tmp_path, fmt, dangling):
    path = tmp_path / "dangling.txt"
    path.write_text("1 2\n2 1\n2 3\n")  # node 3 has no out-links
    as_string = (None if fmt is None else fmt.value, dangling.value)
    if dangling is DanglingPolicy.REJECT:
        for args in ((fmt, dangling), as_string):
            with pytest.raises(IngestError, match="node 3 has no out-links"):
                ingest(path, *args)
        return
    matrix, _ = ingest(path, fmt, dangling)
    from_strings, _ = ingest(path, *as_string)
    assert from_strings.entries.tobytes() == matrix.entries.tobytes()
    assert matrix.entries[2, 2] == (1.0 if dangling is DanglingPolicy.SELF_LOOP else 1 / 3)


@pytest.mark.parametrize(
    "fmt, dangling, message",
    [
        ("text", "reject", "format must be one of 'edges', 'csv', 'json', got 'text'"),
        ("", "reject", "format must be one of 'edges', 'csv', 'json', got ''"),
        (None, "bogus", "dangling policy must be one of 'reject', 'self-loop', 'uniform-jump', got 'bogus'"),
        (None, "SELF_LOOP", "dangling policy must be one of 'reject', 'self-loop', 'uniform-jump', got 'SELF_LOOP'"),
    ],
)
def test_an_unknown_choice_is_refused(tmp_path, fmt, dangling, message):
    path = tmp_path / "dangling.txt"
    path.write_text("1 2\n2 1\n2 3\n")
    with pytest.raises(ValidationError) as info:
        ingest(path, fmt, dangling)
    assert str(info.value) == message


def test_a_format_string_picks_the_parser(tmp_path):
    # A file named like JSON, read as the edge list it holds.
    path = tmp_path / "graph.json"
    path.write_text("1 2\n2 1\n")
    matrix, damping = ingest(path, "edges")
    assert damping is None and matrix.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def naive_edge_matrix(edges, dangling):
    """Hyperlink matrix of 1-based ``edges``, one node at a time, or None where ``dangling`` rejects."""
    m = max(max(edge) for edge in edges)
    entries = np.zeros((m, m))
    for i in range(m):
        targets = {dst - 1 for src, dst in edges if src - 1 == i}
        for j in targets:
            entries[i, j] = 1.0 / len(targets)
        if targets:
            continue
        if dangling is DanglingPolicy.REJECT:
            return None
        if dangling is DanglingPolicy.SELF_LOOP:
            entries[i, i] = 1.0
        else:
            entries[i] = 1.0 / m
    return entries


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=40),
    st.sampled_from(list(DanglingPolicy)),
)
def test_edge_list_matches_naive_construction(tmp_path_factory, edges, dangling):
    # Small ids make duplicate edges and nodes without out-links common.
    path = tmp_path_factory.mktemp("edges") / "graph.txt"
    path.write_text("".join(f"{src} {dst}\n" for src, dst in edges))
    expected = naive_edge_matrix(edges, dangling)
    if expected is None:
        sources = {src for src, _ in edges}
        first = min(k for k in range(1, 10) if k not in sources)
        with pytest.raises(IngestError, match=f"node {first} has no out-links"):
            ingest(path, dangling=dangling)
    else:
        matrix, _ = ingest(path, dangling=dangling)
        assert matrix.entries.shape == expected.shape
        assert (matrix.entries == expected).all()


class TestBadInput:
    def test_zero_based_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(IngestError, match="1-based"):
            ingest(path)

    def test_non_integer_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(IngestError, match="integers"):
            ingest(path)

    def test_node_id_beyond_memory_is_refused_without_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.txt"
        path.write_text("1 2\n3 10000000\n")
        allocations = []
        monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: allocations.append(args))
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert str(info.value).startswith(
            "node id 10000000 needs a dense 10000000 x 10000000 matrix of 745058.1 GiB, more than the "
        )
        assert allocations == []

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_unknown_memory_size_skips_the_guard(self, monkeypatch, error):
        # Windows has no os.sysconf; elsewhere a name can be unknown or unreadable.
        if error is AttributeError:
            monkeypatch.delattr(os, "sysconf")
        else:

            def unreadable(name):
                raise error(name)

            monkeypatch.setattr(os, "sysconf", unreadable)
        matrix, _ = ingest(DATA / "five_node_edges.txt")
        np.testing.assert_allclose(matrix.entries, chains.five_node_entries(), atol=1e-15)

    def test_failed_allocation_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.txt"
        path.write_text("1 2\n3 10000000\n")
        monkeypatch.delattr(os, "sysconf")

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(IngestError) as info:
            ingest(path)
        assert str(info.value) == (
            "node id 10000000 needs a dense 10000000 x 10000000 matrix of 745058.1 GiB, "
            "more than could be allocated"
        )

    def test_missing_file(self):
        with pytest.raises(IngestError, match="not found"):
            ingest(DATA / "nope.txt")

    def test_non_stochastic_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.6,0.6\n0.5,0.5\n")
        with pytest.raises(IngestError, match="validation"):
            ingest(path)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n1.0\n")
        with pytest.raises(IngestError, match="square"):
            ingest(path)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"matrix": [[1, 0], [1]]}', "matrix"),
            ('{"matrix": [["a", 1], [1, 0]]}', "matrix"),
            ('{"matrix": [[1, 0], [0, 1%s]]}' % ("0" * 400), "matrix"),
            ('{"matrix": [[0, 1], [1, 0]], "damping": [0.5, "x"]}', "damping"),
            ('{"matrix": [["0.5", "0.5"], ["0.5", "0.5"]]}', "matrix"),
            ('{"matrix": [[true, false], [false, true]]}', "matrix"),
            ('{"matrix": [[0.5, 0.5], [0.5, 0.5]], "damping": ["0.5", "0.5"]}', "damping"),
            ('{"matrix": [[true, 0.0], [0.5, 0.5]]}', "matrix"),
        ],
        ids=[
            "ragged", "string", "huge-integer", "string-damping", "numeric-string",
            "boolean", "numeric-string-damping", "boolean-among-numbers",
        ],
    )
    def test_malformed_json_arrays_rejected(self, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(IngestError, match=f"'{field}' must be a rectangular array of numbers"):
            ingest(path)


# Each edge-list text and the IngestError it gives, or None for the edges
# 1 -> 2 and 2 -> 1. Comments, blank lines, CRLF and tabs are accepted;
# every bad line is named by its number, counted as str.splitlines counts.
EDGE_TEXTS = {
    "comments-and-blank-lines": ("# header\n\n1 2 # first link\n   \n2 1\n", None),
    "crlf": ("1 2\r\n2 1\r\n", None),
    "tabs": ("1\t2\n\t2\t1\t\n", None),
    "no-final-newline": ("1 2\n2 1", None),
    "duplicate-edges": ("1 2\n1 2\n2 1\n1 2\n", None),
    "signed-and-padded-ids": ("+1 002\n2 1\n", None),
    "non-ascii-digits": ("\u0661 2\n2 1\n", None),
    "line-boundary-in-comment": ("# a comment ending at a vertical tab\x0b1 2\n2 1\n", None),
    "unicode-spaces-and-breaks": ("1\xa02\u20282\u30001\x0c", None),
    "three-fields": ("# header\n\n1 2\n2 1 3\n", "line 4: expected 'src dst', got '2 1 3'"),
    "three-fields-crlf": ("1 2\r\n2 1 3\r\n", "line 2: expected 'src dst', got '2 1 3'"),
    "one-field": ("1 2\n2\t# no target\n", "line 2: expected 'src dst', got '2\\t# no target'"),
    "non-integer": ("1 2\n2 x\n", "line 2: node ids must be integers, got '2 x'"),
    "decimal-id": ("1 2\n2 1.0\n", "line 2: node ids must be integers, got '2 1.0'"),
    "id-zero": ("1 2\n\n0 1\n", "line 3: node ids are 1-based, got 0 -> 1"),
    "negative-id": ("1 2\n2 -1\n", "line 2: node ids are 1-based, got 2 -> -1"),
    "first-bad-line-wins": ("1 2 3\n0 1\n", "line 1: expected 'src dst', got '1 2 3'"),
    "empty": ("", "edge list contains no edges"),
    "comments-only": ("# nothing\n\n  # here\n", "edge list contains no edges"),
    "huge-id": ("1 2\n3 10000000\n", "node id 10000000 needs a dense 10000000 x 10000000 matrix of 745058.1 GiB"),
    "id-beyond-int64": (
        "1 2\n3 99999999999999999999\n",
        "node id 99999999999999999999 needs a dense 99999999999999999999 x 99999999999999999999 matrix",
    ),
}


@pytest.mark.parametrize("case", EDGE_TEXTS)
def test_edge_list_text_is_read_or_refused_by_its_first_bad_line(tmp_path, case):
    text, message = EDGE_TEXTS[case]
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    if message is None:
        matrix, _ = ingest(path)
        np.testing.assert_array_equal(matrix.entries, [[0.0, 1.0], [1.0, 0.0]])
        return
    with pytest.raises(IngestError) as info:
        ingest(path)
    if case.startswith(("huge-id", "id-beyond")):
        assert str(info.value).startswith(message)
    else:
        assert str(info.value) == message


def _dense_edge_matrix(m, edges, dangling):
    """The hyperlink matrix of 1-based ``edges`` built on the dense array, as ingest once did."""
    rows, cols = (np.array(edges) - 1).T
    entries = np.zeros((m, m))
    entries[rows, cols] = 1.0
    degree = entries.sum(axis=1)
    entries[rows, cols] = 1.0 / degree[rows]
    no_links = np.flatnonzero(degree == 0)
    if dangling is DanglingPolicy.SELF_LOOP:
        entries[no_links, no_links] = 1.0
    else:
        entries[no_links] = 1.0 / m
    return entries


@pytest.mark.parametrize("dangling", [DanglingPolicy.SELF_LOOP, DanglingPolicy.UNIFORM_JUMP])
def test_sparse_edge_list_view_matches_a_dense_build(tmp_path, dangling):
    # 300 states with up to 5 links each, some of them repeated, and two
    # dangling nodes: sparse enough for a view under either policy.
    rng = np.random.default_rng(17)
    m = 300
    edges = [(i + 1, int(j) + 1) for i in range(m) if i not in (7, 150) for j in rng.integers(0, m, 5)]
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{src} {dst}\n" for src, dst in edges))
    matrix, _ = ingest(path, dangling=dangling)
    expected = _dense_edge_matrix(m, edges, dangling)
    assert matrix.entries.tobytes() == expected.tobytes()
    view, scanned = matrix._nonzeros, StochasticMatrix(expected)._nonzeros
    # The view holds every entry with nonzero bits: scattered onto zeros, it is the array.
    rebuilt = np.zeros((m, m))
    rebuilt[np.repeat(np.arange(m), view.counts), view.cols] = view.values
    assert rebuilt.tobytes() == expected.tobytes()
    for got, want in zip(view[:3], scanned[:3]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    x = np.random.default_rng(1).random(m)
    assert matrix.vecmat(x).tobytes() == StochasticMatrix(expected).vecmat(x).tobytes()


def test_csv_ingest(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n")
    matrix, _ = ingest(path)
    np.testing.assert_array_equal(matrix.entries, [[0.5, 0.5], [0.25, 0.75]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.5,0.5\n\n0.5,x\n1__0,2\n", "line 3: could not parse CSV floats: '0.5,x'"),
        ("0.5,0.5\n1__0,0.5\n", "line 2: could not parse CSV floats: '1__0,0.5'"),
        ("0.5,\n", "line 1: could not parse CSV floats: '0.5,'"),
        (" \n\t\n", "CSV matrix is empty"),
        ("0.5,0.5\n1.0\n", "CSV matrix must be square, got 2 rows of width 2"),
        ("1.0\n1.0\n", "CSV matrix must be square, got 2 rows of width 1"),
    ],
)
def test_csv_refusals_name_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(IngestError) as info:
        ingest(path)
    assert str(info.value) == message


def emit(entries, damping=None):
    """Matrix JSON of ``entries``, written by ``dumps_with_matrix`` as the report echo is."""
    doc = {"dim": entries.shape[0], "matrix": MATRIX_SLOT}
    if damping is not None:
        doc["damping"] = damping.weights.tolist()
    return dumps_with_matrix(doc, entries)


def test_json_round_trip_is_lossless(tmp_path):
    matrix = StochasticMatrix(chains.five_node_entries())
    damping = DampingVector(np.array([0.1, 0.15, 0.25, 0.3, 0.2]))
    text = emit(matrix.entries, damping)
    path = tmp_path / "m.json"
    path.write_text(text)
    back_matrix, back_damping = ingest(path)
    np.testing.assert_array_equal(back_matrix.entries, matrix.entries)
    np.testing.assert_array_equal(back_damping.weights, damping.weights)
    assert emit(back_matrix.entries, back_damping) == text


def old_emit(entries, damping=None):
    doc = {"dim": entries.shape[0], "matrix": entries.tolist()}
    if damping is not None:
        doc["damping"] = damping.weights.tolist()
    return json.dumps(doc, indent=2)


PROBABILITIES = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(square_matrices(PROBABILITIES), st.booleans())
def test_emit_matches_json_of_nested_lists(entries, with_damping):
    damping = DampingVector.uniform(entries.shape[0]) if with_damping else None
    assert emit(entries, damping) == old_emit(entries, damping)


@pytest.mark.parametrize(
    "entries",
    [[[1.0]], [[0.5, 0.5], [1.0, -0.0]], [[5e-324, 1e-300, 1.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0]]],
    ids=["one-state", "negative-zero", "specials"],
)
def test_emit_fixed_matrices_match_json(entries):
    entries = np.array(entries)
    assert emit(entries) == old_emit(entries)


def test_format_can_be_forced(tmp_path):
    path = tmp_path / "matrix.data"
    path.write_text(json.dumps({"matrix": [[0.5, 0.5], [0.5, 0.5]]}))
    matrix, _ = ingest(path, fmt=GraphFormat.MATRIX_JSON)
    assert matrix.dim == 2


def test_load_damping(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("0.1 0.2\n0.3 0.4\n")
    d = load_damping(path, 4)
    np.testing.assert_array_equal(d.weights, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(IngestError, match="expected 3"):
        load_damping(path, 3)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.0 0.5\n")
    with pytest.raises(IngestError, match="validation"):
        load_damping(bad, 3)
