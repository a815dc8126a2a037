"""Sparse matrix ingestion and partition file I/O.

Matrices in Matrix Market coordinate format are read as hypergraphs with
the column-net convention: rows become vertices, columns become
hyperedges, and a structural nonzero at (r, c) is the pin (hyperedge c,
vertex r). Numeric values are ignored; only the sparsity pattern is
used. Partition files are plain text, one decimal part id per line, line
i holding the assignment of vertex i.
"""

from __future__ import annotations

from typing import Dict, Optional, TextIO

from .model import Hypergraph, Partition

WEIGHT_SCHEMES = ("unit", "size")


class MatrixFormatError(ValueError):
    """Raised for malformed Matrix Market input."""


class PartitionFormatError(ValueError):
    """Raised for malformed partition files."""


def read_matrix_market(source: TextIO, scheme: str = "unit",
                       stats: Optional[Dict[str, int]] = None) -> Hypergraph:
    """Read a Matrix Market coordinate stream as a column-net hypergraph.

    ``scheme`` selects hyperedge weights: "unit" gives every hyperedge
    weight 1, "size" gives each hyperedge its pin count as weight. Vertex
    weights are always 1. Symmetric (and hermitian/skew-symmetric)
    matrices are mirrored; duplicate coordinates collapse to one pin;
    structurally empty columns are dropped (counted in ``stats`` when a
    dict is supplied). Empty rows are kept as isolated vertices.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")

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

    lines = iter(source)
    for line in lines:
        size_line = line.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
        raise MatrixFormatError("truncated stream: missing size line")
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

    # One pass over the entries; nothing after the nnz-th is read. Blank
    # and comment lines fail the parse, so they are told apart from
    # malformed entries only then. Pin sets stay unsorted: Hypergraph
    # sorts each pin list once.
    col_pins = [set() for _ in range(cols)]
    count = 0
    for line in (lines if nnz else ()):
        fields = line.split()
        try:
            r, c = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):
            if not fields or fields[0].startswith("%"):
                continue
            raise MatrixFormatError(f"malformed entry: {line.strip()!r}") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise MatrixFormatError(f"coordinate ({r}, {c}) out of range")
        col_pins[c - 1].add(r - 1)
        if mirror and r != c:
            col_pins[r - 1].add(c - 1)
        count += 1
        if count == nnz:
            break
    if count < nnz:
        raise MatrixFormatError(f"truncated stream: expected {nnz} entries, got {count}")

    pins = [s for s in col_pins if s]
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


def write_partition(p: Partition, sink: TextIO) -> None:
    """Write one decimal part id per line, newline terminated."""
    for part in p.assignment:
        sink.write(f"{part}\n")


def read_partition(source: TextIO, h: Hypergraph, k: int) -> Partition:
    """Read a partition file back into a Partition with fresh weights."""
    assignment = []
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            part = int(stripped)
        except ValueError:
            raise PartitionFormatError(f"line {lineno}: not an integer: {stripped!r}") from None
        if not 0 <= part < k:
            raise PartitionFormatError(f"line {lineno}: part id {part} out of range [0, {k})")
        assignment.append(part)
    if len(assignment) != h.num_vertices:
        raise PartitionFormatError(
            f"wrong line count: expected {h.num_vertices}, got {len(assignment)}")
    return Partition.from_assignment(h, k, assignment)
