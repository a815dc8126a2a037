"""Hypergraph data model and partition quality metrics.

The hypergraph keeps both incidence directions as sorted lists: the
vertices of each hyperedge (``pins_by_hyperedge``) and the hyperedges
incident to each vertex (``pins_by_vertex``). Vertex and hyperedge
weights are positive integers. Partition quality is measured with the
connectivity-minus-one cost (a hyperedge pays its weight once for every
part it touches beyond the first) and with the worst relative deviation
of a part weight from the average part weight.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple


class InfeasibleBalanceError(RuntimeError):
    """No partition can satisfy the requested balance constraint."""


class Hypergraph:
    """Weighted hypergraph with bidirectional, sorted pin lists.

    Instances are treated as immutable after construction; every pass of
    the partitioner builds new (coarser or induced) hypergraphs instead
    of mutating existing ones, so sharing across threads for reads is
    safe.

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
    )

    def __init__(
        self,
        num_vertices: int,
        pins_by_hyperedge: Sequence[Iterable[int]],
        vertex_weight: Optional[Sequence[int]] = None,
        hyperedge_weight: Optional[Sequence[int]] = None,
    ):
        self.num_vertices = num_vertices
        self.pins_by_hyperedge = [sorted(pins) for pins in pins_by_hyperedge]
        self.num_hyperedges = len(self.pins_by_hyperedge)
        if vertex_weight is None:
            self.vertex_weight = [1] * num_vertices
        else:
            self.vertex_weight = list(vertex_weight)
        if hyperedge_weight is None:
            self.hyperedge_weight = [1] * self.num_hyperedges
        else:
            self.hyperedge_weight = list(hyperedge_weight)

        by_vertex: List[List[int]] = [[] for _ in range(num_vertices)]
        for e, pins in enumerate(self.pins_by_hyperedge):
            for v in pins:
                if 0 <= v < num_vertices:
                    by_vertex[v].append(e)
        self.pins_by_vertex = by_vertex
        self.total_vertex_weight = sum(self.vertex_weight)

    def degree(self, v: int) -> int:
        return len(self.pins_by_vertex[v])

    def edge_size(self, e: int) -> int:
        return len(self.pins_by_hyperedge[e])

    def num_pins(self) -> int:
        return sum(len(p) for p in self.pins_by_hyperedge)

    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_pins() / self.num_vertices

    def max_hyperedge_weight(self) -> int:
        return max(self.hyperedge_weight, default=1)

    def max_vertex_weight(self) -> int:
        return max(self.vertex_weight, default=1)

    def vertex_incident_weights(self) -> List[int]:
        """Sum of incident hyperedge weights, per vertex."""
        out = [0] * self.num_vertices
        for e, pins in enumerate(self.pins_by_hyperedge):
            w = self.hyperedge_weight[e]
            for v in pins:
                out[v] += w
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Hypergraph(V={self.num_vertices}, E={self.num_hyperedges}, "
                f"pins={self.num_pins()})")


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
    pins_out: List[Tuple[int, ...]] = []
    weight_out: List[int] = []
    for pins, w in zip(h.pins_by_hyperedge, h.hyperedge_weight):
        mapped = set(map(image, pins))
        mapped.discard(-1)
        if len(mapped) < 2:
            continue
        key = tuple(sorted(mapped))
        idx = groups.get(key)
        if idx is None:
            groups[key] = len(pins_out)
            pins_out.append(key)
            weight_out.append(w)
        else:
            weight_out[idx] += w
    return Hypergraph(num_vertices, pins_out, vertex_weight=vertex_weight,
                      hyperedge_weight=weight_out)


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
    ranges, duplicate pins, positive weights, weight-array lengths and
    the exact transpose relation between the two incidence directions.
    """
    problems: List[str] = []
    if len(h.vertex_weight) != h.num_vertices:
        problems.append("vertex weight array length mismatch")
    if len(h.hyperedge_weight) != h.num_hyperedges:
        problems.append("hyperedge weight array length mismatch")
    for v, w in enumerate(h.vertex_weight):
        if w < 1:
            problems.append(f"vertex {v} has non-positive weight {w}")
    for e, w in enumerate(h.hyperedge_weight):
        if w < 1:
            problems.append(f"hyperedge {e} has non-positive weight {w}")
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


def connectivity_degree(h: Hypergraph, p: Partition, e: int) -> int:
    """Number of distinct parts touched by hyperedge ``e``."""
    if not 0 <= e < h.num_hyperedges:
        raise IndexError(f"hyperedge id {e} out of range")
    assignment = p.assignment
    return len({assignment[v] for v in h.pins_by_hyperedge[e]})


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


class BalanceWindow(NamedTuple):
    """Feasible interval for the weight of part 0 in a bisection.

    ``target`` is the aim point; ``lower``/``upper`` bound the part-0
    weight of an acceptable bisection. Part 1 is implied by the total.
    Windows built by the driver are complement-consistent, so checking
    part 0 checks both sides.
    """

    lower: float
    upper: float
    target: float

    @classmethod
    def symmetric(cls, total_weight: int, epsilon: float) -> "BalanceWindow":
        avg = total_weight / 2.0
        return cls(avg * (1.0 - epsilon), avg * (1.0 + epsilon), avg)

    def violation(self, weight0: float) -> float:
        v = max(self.lower - weight0, weight0 - self.upper, 0.0)
        return 0.0 if v <= 1e-9 else v
