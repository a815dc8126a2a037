"""Matrix Market ingestion and partition file round trips."""

import io
import random

import pytest

from hypart import (Hypergraph, MatrixFormatError, Partition,
                    read_matrix_market, write_partition)
from hypart.io import WEIGHT_SCHEMES

from reference import edge_size


def read(text, scheme="unit", stats=None):
    return read_matrix_market(io.StringIO(text), scheme=scheme, stats=stats)


IDENTITY_3 = """%%MatrixMarket matrix coordinate real general
3 3 3
1 1 1.0
2 2 1.0
3 3 1.0
"""

FULL_2 = """%%MatrixMarket matrix coordinate pattern general
2 2 4
1 1
1 2
2 1
2 2
"""


class TestReadMatrixMarket:
    def test_identity_matrix(self):
        h = read(IDENTITY_3)
        assert h.num_vertices == 3
        assert h.num_hyperedges == 3
        assert all(edge_size(h, e) == 1 for e in range(3))
        assert h.hyperedge_weight == [1, 1, 1]

    def test_full_matrix_with_size_weights(self):
        h = read(FULL_2, scheme="size")
        assert h.num_vertices == 2
        assert h.num_hyperedges == 2
        assert h.pins_by_hyperedge == [[0, 1], [0, 1]]
        assert h.hyperedge_weight == [2, 2]

    def test_coordinate_transcription(self):
        text = ("%%MatrixMarket matrix coordinate pattern general\n"
                "3 2 4\n1 1\n2 1\n2 2\n3 2\n")
        h = read(text)
        assert h.pins_by_hyperedge == [[0, 1], [1, 2]]

    def test_values_ignored(self):
        with_values = read(IDENTITY_3)
        pattern = read(IDENTITY_3.replace("real", "pattern")
                                 .replace(" 1.0", ""))
        assert with_values.pins_by_hyperedge == pattern.pins_by_hyperedge

    def test_symmetric_equals_mirrored_general(self):
        symmetric = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "4 4 4\n2 1\n3 2\n4 3\n3 3\n")
        general = ("%%MatrixMarket matrix coordinate pattern general\n"
                   "4 4 7\n2 1\n1 2\n3 2\n2 3\n4 3\n3 4\n3 3\n")
        hs = read(symmetric)
        hg = read(general)
        assert hs.pins_by_hyperedge == hg.pins_by_hyperedge

    def test_duplicates_collapse_and_pin_count(self):
        text = ("%%MatrixMarket matrix coordinate pattern general\n"
                "3 2 5\n1 1\n1 1\n2 1\n2 2\n2 2\n")
        stats = {}
        h = read(text, stats=stats)
        # Three distinct coordinates remain.
        assert h.num_pins() == 3
        assert stats["pins"] == 3

    def test_empty_columns_dropped_and_counted(self):
        text = ("%%MatrixMarket matrix coordinate pattern general\n"
                "3 4 3\n1 1\n2 1\n3 3\n")
        stats = {}
        h = read(text, stats=stats)
        assert h.num_hyperedges == 2
        assert stats["dropped_empty_columns"] == 2
        # Rows without entries stay as isolated vertices.
        assert h.num_vertices == 3

    def test_comment_lines_skipped(self):
        text = ("%%MatrixMarket matrix coordinate pattern general\n"
                "% a comment\n"
                "2 2 2\n"
                "% another\n"
                "1 1\n2 2\n")
        h = read(text)
        assert h.num_hyperedges == 2

    def test_malformed_header(self):
        with pytest.raises(MatrixFormatError):
            read("not a header\n1 1 1\n1 1\n")

    @pytest.mark.parametrize("header, message", [
        ("%%MatrixMarket matrix coordinate pattern",
         "malformed header: '%%MatrixMarket matrix coordinate pattern'"),
        ("%%MatrixMarket vector coordinate pattern general",
         "malformed header: '%%MatrixMarket vector coordinate pattern general'"),
        ("%%MatrixMarket matrix coordinate double general",
         "unsupported field type 'double'"),
        ("%%MatrixMarket matrix coordinate pattern upper",
         "unsupported symmetry 'upper'"),
    ], ids=["four-tokens", "not-matrix", "field", "symmetry"])
    def test_unsupported_header_rejected(self, header, message):
        with pytest.raises(MatrixFormatError) as excinfo:
            read(header + "\n2 2 1\n1 1\n")
        assert str(excinfo.value) == message

    def test_array_layout_rejected(self):
        with pytest.raises(MatrixFormatError):
            read("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")

    def test_out_of_range_coordinate(self):
        with pytest.raises(MatrixFormatError, match="out of range"):
            read("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n")

    def test_truncated_stream(self):
        with pytest.raises(MatrixFormatError, match="truncated"):
            read("%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n")

    def test_non_integer_entry(self):
        with pytest.raises(MatrixFormatError):
            read("%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx y\n")

    def test_nonsquare_symmetric_rejected(self):
        with pytest.raises(MatrixFormatError):
            read("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 1\n")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            read(IDENTITY_3, scheme="quadratic")


class TestPartitionFiles:
    def test_write_format(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        p = Partition.from_assignment(h, 2, [0, 1, 0, 1])
        sink = io.StringIO()
        write_partition(p, sink)
        assert sink.getvalue() == "0\n1\n0\n1\n"

    def test_write_empty(self):
        h = Hypergraph(0, [])
        sink = io.StringIO()
        write_partition(Partition.from_assignment(h, 2, []), sink)
        assert sink.getvalue() == ""

    def test_write_kway(self):
        h = Hypergraph(4, [[0, 1]])
        p = Partition.from_assignment(h, 4, [3, 0, 2, 1])
        sink = io.StringIO()
        write_partition(p, sink)
        assert sink.getvalue() == "3\n0\n2\n1\n"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 30)
            k = rng.randint(2, 5)
            h = Hypergraph(n, [])
            assignment = [rng.randrange(k) for _ in range(n)]
            p = Partition.from_assignment(h, k, assignment)
            sink = io.StringIO()
            write_partition(p, sink)
            read_back = [int(x) for x in sink.getvalue().split()]
            assert read_back == assignment
            assert Partition.from_assignment(h, k, read_back).part_weight == p.part_weight


def reference_read_matrix_market(source, scheme="unit", stats=None):
    """Line-by-line reference reader: a generator yields the stripped
    data lines, each entry is pulled from it in turn, and every pin list
    is sorted before the hypergraph sorts it again. The differential test
    below holds the one-pass reader to it."""
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")

    def data_lines():
        for line in source:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            yield stripped

    header = source.readline()
    if not header.startswith("%%MatrixMarket"):
        raise MatrixFormatError("missing %%MatrixMarket header")
    tokens = header.strip().split()
    if len(tokens) < 5 or tokens[1].lower() != "matrix":
        raise MatrixFormatError(f"malformed header: {header.strip()!r}")
    layout, field, symmetry = tokens[2].lower(), tokens[3].lower(), tokens[4].lower()
    if layout != "coordinate":
        raise MatrixFormatError(f"unsupported layout {layout!r}; only coordinate is supported")
    if field not in ("real", "integer", "complex", "pattern"):
        raise MatrixFormatError(f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric", "hermitian"):
        raise MatrixFormatError(f"unsupported symmetry {symmetry!r}")
    mirror = symmetry != "general"

    lines = data_lines()
    try:
        size_line = next(lines)
    except StopIteration:
        raise MatrixFormatError("truncated stream: missing size line") from None
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixFormatError(f"malformed size line: {size_line!r}")
    try:
        rows, cols, nnz = (int(x) for x in parts)
    except ValueError:
        raise MatrixFormatError(f"malformed size line: {size_line!r}") from None
    if rows < 0 or cols < 0 or nnz < 0:
        raise MatrixFormatError("negative dimension in size line")
    if mirror and rows != cols:
        raise MatrixFormatError("symmetric matrix must be square")

    col_pins = [set() for _ in range(cols)]
    for i in range(nnz):
        try:
            entry = next(lines)
        except StopIteration:
            raise MatrixFormatError(
                f"truncated stream: expected {nnz} entries, got {i}") from None
        fields = entry.split()
        if len(fields) < 2:
            raise MatrixFormatError(f"malformed entry: {entry!r}")
        try:
            r, c = int(fields[0]), int(fields[1])
        except ValueError:
            raise MatrixFormatError(f"malformed entry: {entry!r}") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise MatrixFormatError(f"coordinate ({r}, {c}) out of range")
        col_pins[c - 1].add(r - 1)
        if mirror and r != c:
            col_pins[r - 1].add(c - 1)

    pins = [sorted(s) for s in col_pins if s]
    dropped = cols - len(pins)
    if scheme == "size":
        weights = [len(p) for p in pins]
    else:
        weights = [1] * len(pins)
    h = Hypergraph(rows, pins, hyperedge_weight=weights)
    if stats is not None:
        stats["rows"] = rows
        stats["cols"] = cols
        stats["entries"] = nnz
        stats["pins"] = h.num_pins()
        stats["dropped_empty_columns"] = dropped
    return h


FIELD_VALUES = {"pattern": 0, "integer": 1, "real": 1, "complex": 2}
SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def filler(rng):
    """A line that carries no data: blank, whitespace or a comment."""
    return rng.choice(["", "   ", "\t", "%", "% comment 1 2", "  % indented 3 4",
                       "%%not a header"])


def random_matrix_market(rng):
    """Seeded Matrix Market text, mostly well formed, sometimes broken.

    Covers blank and comment lines anywhere after the header, indented
    and tab-separated lines, CRLF endings, duplicate coordinates, value
    fields after the coordinates, symmetric mirroring and arbitrary lines
    after the nnz-th entry, plus one-field, non-integer, out-of-range and
    missing entries and malformed size lines.
    """
    field = rng.choice(sorted(FIELD_VALUES))
    symmetry = rng.choice(SYMMETRIES)
    rows = rng.randint(0, 8)
    cols = rows if symmetry != "general" else rng.randint(0, 8)
    nnz = rng.randint(0, 12) if rows and cols else 0
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]

    def pad(line):
        if rng.random() < 0.2:
            line = rng.choice([" ", "  ", "\t"]) + line
        if rng.random() < 0.1:
            line += rng.choice([" ", "\t "])
        return line

    def fillers():
        while rng.random() < 0.25:
            lines.append(filler(rng))

    fillers()
    size = [str(rows), str(cols), str(nnz)]
    if rng.random() < 0.04:
        size = rng.choice([size[:2], size + ["1"], [str(rows), "x", str(nnz)],
                           [str(rows), str(cols), "-1"]])
    if rng.random() < 0.97:
        lines.append(pad(" ".join(size)))
    entries = []
    for _ in range(nnz):
        if entries and rng.random() < 0.2:
            r, c = rng.choice(entries)
        else:
            r, c = rng.randint(1, rows), rng.randint(1, cols)
        entries.append((r, c))
    for r, c in entries:
        fillers()
        values = [str(rng.randint(-9, 9)) for _ in range(FIELD_VALUES[field])]
        if rng.random() < 0.05:
            values.append("7.5e-1")
        line = " ".join([str(r), str(c)] + values)
        if rng.random() < 0.02:
            line = rng.choice([str(r), f"{r} y", f"{r} {cols + 1}", f"0 {c}", "1.0 1"])
        lines.append(pad(line))
    if entries and rng.random() < 0.1:
        del lines[-rng.randint(1, min(3, len(entries))):]
    while rng.random() < 0.3:
        lines.append(rng.choice([filler(rng), "x y", "999 999", "1", "1 1 1 1 1"]))
    ending = "\r\n" if rng.random() < 0.1 else "\n"
    text = ending.join(lines)
    return text + ending if rng.random() < 0.8 else text


def read_outcome(reader, text, scheme):
    """Everything a reader reports: the hypergraph and stats, or the
    type and message of the exception it raises."""
    stats = {}
    try:
        h = reader(io.StringIO(text), scheme=scheme, stats=stats)
    except ValueError as exc:   # MatrixFormatError included
        return type(exc), str(exc)
    return (h.num_vertices, h.pins_by_hyperedge, h.pins_by_vertex,
            h.hyperedge_weight, h.vertex_weight, stats)


class TestReaderMatchesReference:
    def test_random_texts(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(3000):
            text = random_matrix_market(rng)
            scheme = rng.choice(WEIGHT_SCHEMES)
            got = read_outcome(read_matrix_market, text, scheme)
            assert got == read_outcome(reference_read_matrix_market, text, scheme), text
            outcomes.add(got[1].split(":")[0] if got[0] is MatrixFormatError else "ok")
        # The generator reaches the accepting path and every entry error.
        assert {"ok", "malformed entry", "truncated stream", "malformed size line",
                "negative dimension in size line"} <= outcomes
        assert any(o.startswith("coordinate") for o in outcomes)

    def test_one_field_entry_message(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n  2 \n"
        with pytest.raises(MatrixFormatError) as reference:
            reference_read_matrix_market(io.StringIO(text))
        with pytest.raises(MatrixFormatError) as got:
            read(text)
        assert str(got.value) == str(reference.value) == "malformed entry: '2'"

    def test_truncated_stream_message(self):
        text = ("%%MatrixMarket matrix coordinate pattern general\n"
                "2 2 3\n% comment\n1 1\n\n% trailing\n")
        with pytest.raises(MatrixFormatError) as reference:
            reference_read_matrix_market(io.StringIO(text))
        with pytest.raises(MatrixFormatError) as got:
            read(text)
        assert (str(got.value) == str(reference.value)
                == "truncated stream: expected 3 entries, got 1")
