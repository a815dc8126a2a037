"""Hypergraph data model and partition quality metrics.

The hypergraph keeps both incidence directions as sorted lists: the
vertices of each hyperedge (``pins_by_hyperedge``) and the hyperedges
incident to each vertex (``pins_by_vertex``). Vertex and hyperedge
weights are positive integers. Partition quality is measured with the
connectivity-minus-one cost (a hyperedge pays its weight once for every
part it touches beyond the first) and with the worst relative deviation
of a part weight from the average part weight.

A dense hypergraph, one whose mean vertex degree is at least its vertex
count, also gets bit-parallel incidence tables (:func:`dense_tables`,
built by :mod:`hypart.dense`), on which FM and initial partitioning
count with ``int.bit_count`` instead of walking pins.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Callable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar)

if TYPE_CHECKING:
    from .dense import DenseTables


class InfeasibleBalanceError(RuntimeError):
    """No partition can satisfy the requested balance constraint."""


_T = TypeVar("_T")


class Hypergraph:
    """Weighted hypergraph with bidirectional, sorted pin lists.

    Instances are treated as immutable after construction; every pass of
    the partitioner builds new (coarser or induced) hypergraphs instead
    of mutating existing ones, so sharing across threads for reads is
    safe. Values that depend only on the hypergraph are computed on first
    use and kept on it (:func:`cached`).

    The constructor normalises pin lists (sorts them, keeps duplicates)
    and builds the vertex-side incidence, but it does not reject
    malformed input. Use :func:`validate` to obtain a report of every
    invariant violation.
    """

    __slots__ = (
        "num_vertices",
        "num_hyperedges",
        "vertex_weight",
        "hyperedge_weight",
        "pins_by_hyperedge",
        "pins_by_vertex",
        "total_vertex_weight",
        "_cache",
    )

    def __init__(
        self,
        num_vertices: int,
        pins_by_hyperedge: Sequence[Iterable[int]],
        vertex_weight: Optional[Sequence[int]] = None,
        hyperedge_weight: Optional[Sequence[int]] = None,
    ):
        pins = [sorted(p) for p in pins_by_hyperedge]
        by_vertex: List[List[int]] = [[] for _ in range(num_vertices)]
        for e, edge in enumerate(pins):
            for v in edge:
                if 0 <= v < num_vertices:
                    by_vertex[v].append(e)
        self._fill(num_vertices, pins, by_vertex,
                   [1] * num_vertices if vertex_weight is None else list(vertex_weight),
                   [1] * len(pins) if hyperedge_weight is None else list(hyperedge_weight))

    @classmethod
    def _from_sorted(cls, num_vertices: int, pins_by_hyperedge: List[List[int]],
                     vertex_weight: List[int], hyperedge_weight: List[int]) -> "Hypergraph":
        """Build from pin lists that are already sorted, duplicate free and
        in range, taking ownership of the given lists instead of copying
        them."""
        by_vertex: List[List[int]] = [[] for _ in range(num_vertices)]
        for e, pins in enumerate(pins_by_hyperedge):
            for v in pins:
                by_vertex[v].append(e)
        h = cls.__new__(cls)
        h._fill(num_vertices, pins_by_hyperedge, by_vertex, vertex_weight, hyperedge_weight)
        return h

    def _fill(self, num_vertices: int, pins_by_hyperedge: List[List[int]],
              pins_by_vertex: List[List[int]], vertex_weight: List[int],
              hyperedge_weight: List[int]) -> None:
        self.num_vertices = num_vertices
        self.pins_by_hyperedge = pins_by_hyperedge
        self.num_hyperedges = len(pins_by_hyperedge)
        self.pins_by_vertex = pins_by_vertex
        self.vertex_weight = vertex_weight
        self.hyperedge_weight = hyperedge_weight
        self.total_vertex_weight = sum(vertex_weight)
        self._cache: dict = {}

    def num_pins(self) -> int:
        """Total length of the pin lists, counted on first use and kept."""
        return cached(self, "num_pins", lambda: sum(map(len, self.pins_by_hyperedge)))

    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_pins() / self.num_vertices

    def max_hyperedge_weight(self) -> int:
        return max(self.hyperedge_weight, default=1)

    def max_vertex_weight(self) -> int:
        return max(self.vertex_weight, default=1)

    def vertex_incident_weights(self) -> List[int]:
        """Sum of incident hyperedge weights, per vertex. Computed on first
        use and kept on the hypergraph: every caller gets the same list,
        which must not be modified."""
        return cached(self, "incident_weights", self._incident_weights)

    def _incident_weights(self) -> List[int]:
        out = [0] * self.num_vertices
        for pins, w in zip(self.pins_by_hyperedge, self.hyperedge_weight):
            for v in pins:
                out[v] += w
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Hypergraph(V={self.num_vertices}, E={self.num_hyperedges}, "
                f"pins={self.num_pins()})")


def cached(h: Hypergraph, key: str, compute: Callable[[], _T]) -> _T:
    """The value ``key`` of ``h``: ``compute()`` the first time it is
    asked for, and the kept result from then on. A hypergraph is
    immutable, so a value that depends only on it holds for its whole
    lifetime and is shared by every caller."""
    cache = h._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def derive_hypergraph(h: Hypergraph, vertex_map: Sequence[int],
                      num_vertices: int) -> Hypergraph:
    """Hypergraph whose vertex ``vertex_map[v]`` absorbs vertex ``v`` of
    ``h``; ``-1`` drops ``v``.

    This is the one hyperedge-fusion rule of contraction and of
    sub-hypergraph induction. Vertex weights add up over the absorbed
    vertices. Each hyperedge maps its pins and loses those of dropped
    vertices; it is dropped when fewer than two distinct pins remain (it
    can never be cut), and hyperedges with identical pin sets fuse into
    the first one seen, whose weight becomes the sum of the group.
    Grouping keys on the pin tuple itself, so equal hashes are always
    confirmed by a full pin comparison.
    """
    vertex_weight = [0] * num_vertices
    for c, w in zip(vertex_map, h.vertex_weight):
        if c >= 0:
            vertex_weight[c] += w

    image = vertex_map.__getitem__
    groups: dict[Tuple[int, ...], int] = {}
    pins_out: List[List[int]] = []
    weight_out: List[int] = []
    for pins, w in zip(h.pins_by_hyperedge, h.hyperedge_weight):
        mapped = set(map(image, pins))
        mapped.discard(-1)
        if len(mapped) < 2:
            continue
        fused = sorted(mapped)
        key = tuple(fused)
        idx = groups.get(key)
        if idx is None:
            groups[key] = len(pins_out)
            pins_out.append(fused)
            weight_out.append(w)
        else:
            weight_out[idx] += w
    return Hypergraph._from_sorted(num_vertices, pins_out, vertex_weight, weight_out)


def is_dense(h: Hypergraph) -> bool:
    """Whether ``h`` gets dense tables: its mean vertex degree is
    at least its vertex count, and its ``n`` incidence masks of ``m``
    bits take no more than one 64-bit word per pin.

    An FM move then recounts the gain of each of at most ``n - 1``
    neighbours from the tables, which is cheaper than walking the
    ``deg(v)`` hyperedges of the moved vertex and their pins. The second
    condition keeps the tables no larger than the pin lists and each
    mask no longer, in words, than the mean degree; without it a level
    with many small hyperedges would recount over masks much longer than
    the walk it replaces.
    """
    n = h.num_vertices
    pins = h.num_pins()
    return pins >= n * n and n * h.num_hyperedges <= 64 * pins


def dense_tables(h: Hypergraph) -> Optional["DenseTables"]:
    """The :class:`~hypart.dense.DenseTables` of ``h``, or None when ``h``
    is not dense or has a hyperedge weight that is not a positive integer
    (or a repeated pin). Built on first use and kept on ``h``, so they
    live exactly as long as ``h``; every caller gets the same tables,
    which must not be modified. :mod:`hypart.dense` is imported only
    then, which keeps it off the start-up path of inputs without a dense
    level."""
    return cached(h, "dense_tables", lambda: _build_dense_tables(h))


def _build_dense_tables(h: Hypergraph) -> Optional["DenseTables"]:
    if not is_dense(h):
        return None
    from .dense import build_tables
    return build_tables(h)


class Partition:
    """A k-way vertex assignment with cached part weights.

    A partition is mutated only by its owner (the refinement pass that is
    working on it); to share one, build a new partition from a copy of
    its assignment first.
    """

    __slots__ = ("k", "assignment", "part_weight")

    def __init__(self, k: int, assignment: Sequence[int], part_weight: Sequence[int]):
        self.k = k
        self.assignment = list(assignment)
        self.part_weight = list(part_weight)

    @classmethod
    def from_assignment(cls, h: Hypergraph, k: int, assignment: Sequence[int]) -> "Partition":
        weights = [0] * k
        for v, p in enumerate(assignment):
            weights[p] += h.vertex_weight[v]
        return cls(k, assignment, weights)

    def part_sizes(self) -> List[int]:
        sizes = [0] * self.k
        for p in self.assignment:
            sizes[p] += 1
        return sizes

    def __repr__(self) -> str:  # pragma: no cover
        return f"Partition(k={self.k}, weights={self.part_weight})"


def validate(h: Hypergraph) -> List[str]:
    """Check every structural invariant and return the violations found.

    An empty list means the hypergraph is well formed. Checks cover id
    ranges, duplicate pins, positive integer weights, weight-array
    lengths and the exact transpose relation between the two incidence
    directions.
    """
    problems: List[str] = []
    if len(h.vertex_weight) != h.num_vertices:
        problems.append("vertex weight array length mismatch")
    if len(h.hyperedge_weight) != h.num_hyperedges:
        problems.append("hyperedge weight array length mismatch")
    for kind, weights in (("vertex", h.vertex_weight), ("hyperedge", h.hyperedge_weight)):
        for i, w in enumerate(weights):
            if type(w) is not int:
                problems.append(f"{kind} {i} has non-integer weight {w!r}")
            elif w < 1:
                problems.append(f"{kind} {i} has non-positive weight {w}")
    for e, pins in enumerate(h.pins_by_hyperedge):
        for v in pins:
            if not 0 <= v < h.num_vertices:
                problems.append(f"hyperedge {e}: vertex id {v} out of range")
        seen = set(pins)
        if len(seen) != len(pins):
            problems.append(f"hyperedge {e} contains duplicate vertices")
        if list(pins) != sorted(pins):
            problems.append(f"hyperedge {e} pin list not sorted")
    # Rebuild the vertex side from the hyperedge side and compare.
    rebuilt: List[List[int]] = [[] for _ in range(h.num_vertices)]
    for e, pins in enumerate(h.pins_by_hyperedge):
        for v in pins:
            if 0 <= v < h.num_vertices:
                rebuilt[v].append(e)
    if rebuilt != h.pins_by_vertex:
        problems.append("pins_by_vertex is not the transpose of pins_by_hyperedge")
    return problems


def partition_cost(h: Hypergraph, p: Partition) -> int:
    """Connectivity-minus-one cut cost of ``p`` on ``h``.

    Zero exactly when no hyperedge spans more than one part.
    """
    assignment = p.assignment
    cost = 0
    for e, pins in enumerate(h.pins_by_hyperedge):
        if not pins:
            continue
        parts = {assignment[v] for v in pins}
        cost += h.hyperedge_weight[e] * (len(parts) - 1)
    return cost


def max_imbalance(h: Hypergraph, p: Partition) -> float:
    """Largest relative deviation of a part weight from the average.

    A partition satisfies the balance constraint for tolerance ``eps``
    exactly when the returned value is at most ``eps``.
    """
    avg = h.total_vertex_weight / p.k
    if avg == 0:
        return 0.0
    return max(abs(w - avg) / avg for w in p.part_weight)


def part_interval(avg_part: float, epsilon: float) -> Tuple[int, int]:
    """Integer interval ``(L, H)`` of weights one part may take.

    Part weights are integers, so a part must weigh between
    ceil((1 - eps) * avg) and floor((1 + eps) * avg). A quota of k parts
    may weigh anything in k * [L, H]: the sum of k such intervals, which
    stays a contiguous integer interval. Windows drawn from these
    intervals always contain a weight the descendants can realise, which
    real-valued windows do not guarantee (a node may be handed a weight
    whose child window contains no integer).
    """
    return (math.ceil(avg_part * (1.0 - epsilon) - 1e-9),
            math.floor(avg_part * (1.0 + epsilon) + 1e-9))


class BalanceWindow(NamedTuple):
    """Feasible interval for the weight of part 0 in a bisection.

    ``lower``/``upper`` are the integer bounds of the part-0 weight of an
    acceptable bisection, and ``target`` is the aim point inside them.
    Part 1 is implied by the total. Windows built by :meth:`split` are
    complement-consistent, so checking part 0 checks both sides. Part
    weights are integers too, so :meth:`violation` is exact and a
    balanced part-0 weight has violation 0.
    """

    lower: int
    upper: int
    target: float

    @classmethod
    def split(cls, weight: int, k1: int, k2: int, part_lo: int,
              part_hi: int) -> "BalanceWindow":
        """Window of a node of ``weight`` that splits into ``k1`` parts on
        side 0 and ``k2`` on side 1, each part weighing an integer in
        ``[part_lo, part_hi]`` (see :func:`part_interval`).

        Side 0 must hold a weight its k1 parts can realise and leave one
        the k2 parts of side 1 can realise, and the target, the k1:k2
        share of ``weight``, is clamped into the window. Raises
        :class:`InfeasibleBalanceError` when no integer weight qualifies.
        """
        lower = max(k1 * part_lo, weight - k2 * part_hi)
        upper = min(k1 * part_hi, weight - k2 * part_lo)
        if lower > upper:
            raise InfeasibleBalanceError(
                f"empty balance window for a {k1}:{k2} split of weight {weight}")
        return cls(lower, upper, min(max(weight * k1 / (k1 + k2), lower), upper))

    @classmethod
    def symmetric(cls, total_weight: int, epsilon: float) -> "BalanceWindow":
        """The window of a two-way partition of ``total_weight`` within
        ``epsilon``: the root window of ``partition_kway`` at k = 2."""
        return cls.split(total_weight, 1, 1, *part_interval(total_weight / 2, epsilon))

    def violation(self, weight0: int) -> int:
        return max(self.lower - weight0, weight0 - self.upper, 0)
