"""Differential tests of the FM engine against a scalar reference FM.

The reference below recounts gains and cost from scratch before every
move and selects moves the plain way: it walks the distinct gains in
descending order and, per gain and side, scans for the lowest-id
admissible vertex. The engine in ``hypart.refine`` keeps incremental
gains, per-side buckets and an ascending list of each side's bucket
gains, and compares each vertex weight against one integer limit per
side, which rejects a blocked side at once; it must make exactly the
same moves. :func:`weight_admissible` is the per-weight admissibility
rule, float soft bounds included, that each side's limit must
reproduce for every weight.

The fuzzed hypergraphs are small, so the fuzz draws the early-exit
window of ``fm-ee`` passes from (1, 3, 50) by setting
``hypart.refine.EARLY_EXIT_WINDOW``; with the default of 50 alone no
pass could stop early.

The engine updates gains one of two ways: by walking the pins of the
moved vertex's critical hyperedges, or, on a dense level, by recounting
neighbour gains from bit-parallel tables. The differential tests run
once per way, with the density predicate ``hypart.model.is_dense``
forced to pick it.
"""

import random

import pytest

from hypart import (BalanceWindow, Hypergraph, InfeasibleBalanceError, Partition,
                    fm_pass, partition_cost, refine_bipartition)
from hypart import model, refine
from hypart.dense import _DenseFmState
from hypart.refine import FmAuditError, _FmState, _recount

from conftest import naive_cost, random_weighted_hypergraph


def reference_gains(h, assignment):
    gains = [0] * h.num_vertices
    for e, pins in enumerate(h.pins_by_hyperedge):
        w = h.hyperedge_weight[e]
        for v in pins:
            own = sum(1 for u in pins if assignment[u] == assignment[v])
            other = len(pins) - own
            gains[v] += w * ((1 if other > 0 else 0) - (1 if own > 1 else 0))
    return gains


def reference_recount(h, assignment):
    """Pin counts, gains and cost pin by pin, as ``_recount`` defines them."""
    count0 = []
    gains = [0] * h.num_vertices
    cost = 0
    for pins, w in zip(h.pins_by_hyperedge, h.hyperedge_weight):
        sides = [assignment[v] for v in pins]
        c1 = sum(sides)
        c0 = len(pins) - c1
        count0.append(c0)
        g0 = w * ((c1 > 0) - (c0 > 1))
        g1 = w * ((c0 > 0) - (c1 > 1))
        if c0 and c1:
            cost += w
            for v, s in zip(pins, sides):
                gains[v] += g1 if s else g0
        else:
            g = g1 if c1 else g0
            for v in pins:
                gains[v] += g
    return count0, gains, cost


def reference_admissible(h, window, assignment, part_weight, v):
    a = assignment[v]
    if sum(1 for part in assignment if part == a) <= 1:
        return False
    wmax = max(h.vertex_weight)
    lo_soft = min(window.lower, window.target - wmax)
    hi_soft = max(window.upper, window.target + wmax)
    w0 = part_weight[0]
    w0_after = w0 - h.vertex_weight[v] if a == 0 else w0 + h.vertex_weight[v]
    if lo_soft - 1e-9 <= w0_after <= hi_soft + 1e-9:
        return True
    return window.violation(w0_after) < window.violation(w0) - 1e-12


def weight_admissible(h, window, part_weight, side, weight):
    """Whether a vertex of ``weight`` may move off ``side``: the part-0
    weight after the move lies in the window widened by one maximum
    vertex weight, or its violation is lower than now, and the side does
    not empty."""
    if part_weight[side] <= weight:
        return False
    wmax = max(h.vertex_weight)
    lo_soft = min(window.lower, window.target - wmax)
    hi_soft = max(window.upper, window.target + wmax)
    w0 = part_weight[0]
    w0_after = w0 - weight if side == 0 else w0 + weight
    if lo_soft <= w0_after <= hi_soft:
        return True
    return window.violation(w0_after) < window.violation(w0)


def reference_select(h, window, assignment, part_weight, candidates):
    gains = reference_gains(h, assignment)
    total = h.total_vertex_weight
    deficits = (window.target - part_weight[0],
                (total - window.target) - part_weight[1])
    for gain in sorted({gains[v] for v in candidates}, reverse=True):
        best = [None, None]
        for side in (0, 1):
            for v in sorted(candidates):
                if (gains[v] == gain and assignment[v] == side
                        and reference_admissible(h, window, assignment, part_weight, v)):
                    best[side] = v
                    break
        cand0, cand1 = best
        if cand0 is None and cand1 is None:
            continue
        if cand1 is None:
            return cand0
        if cand0 is None:
            return cand1
        key0 = (0 if deficits[1] >= deficits[0] else 1, cand0)
        key1 = (0 if deficits[0] >= deficits[1] else 1, cand1)
        return cand0 if key0 <= key1 else cand1
    return None


def state_key(window, part_weight, cost):
    violation = window.violation(part_weight[0])
    if violation <= 1e-9:
        return (0, float(cost), 0)
    return (1, violation, cost)


def reference_fm_pass(h, assignment, window, mode, early_exit_window):
    """One pass on copies; returns ``(assignment, part_weight, delta)``
    plus the moves made in order and whether the early exit stopped the
    pass while an admissible move was left."""
    assignment = list(assignment)
    part_weight = [0, 0]
    for v, part in enumerate(assignment):
        part_weight[part] += h.vertex_weight[v]

    def cut_pins():
        return {u for pins in h.pins_by_hyperedge
                if len({assignment[v] for v in pins}) > 1 for u in pins}

    eligible = cut_pins() if mode == "bfm" else set(range(h.num_vertices))
    locked = set()
    initial = cost = naive_cost(h, assignment)
    best_key = state_key(window, part_weight, cost)
    best_cost = cost
    history = []
    best_index = 0
    stall = 0
    exited_early = False
    while True:
        v = reference_select(h, window, assignment, part_weight, eligible - locked)
        if v is None:
            break
        a = assignment[v]
        assignment[v] = 1 - a
        part_weight[a] -= h.vertex_weight[v]
        part_weight[1 - a] += h.vertex_weight[v]
        locked.add(v)
        history.append(v)
        if mode == "bfm":
            # A hyperedge that the move puts into the cut makes its pins
            # eligible; pins of hyperedges already cut are eligible already.
            eligible |= cut_pins()
        cost = naive_cost(h, assignment)
        key = state_key(window, part_weight, cost)
        if key < best_key:
            best_key, best_cost, best_index, stall = key, cost, len(history), 0
        else:
            stall += 1
            if mode == "fm-ee" and stall >= early_exit_window:
                exited_early = reference_select(
                    h, window, assignment, part_weight, eligible - locked) is not None
                break
    for v in reversed(history[best_index:]):
        b = assignment[v]
        assignment[v] = 1 - b
        part_weight[b] -= h.vertex_weight[v]
        part_weight[1 - b] += h.vertex_weight[v]
    return assignment, part_weight, best_cost - initial, history, exited_early


def reference_refine(h, assignment, window, mode, early_exit_window, max_passes):
    total = 0
    for _ in range(max_passes):
        before = window.violation(sum(h.vertex_weight[v] for v, part in
                                      enumerate(assignment) if part == 0))
        assignment, part_weight, delta, _, _ = reference_fm_pass(
            h, assignment, window, mode, early_exit_window)
        total += delta
        if delta == 0 and window.violation(part_weight[0]) == before:
            break
    return assignment, part_weight, total


def weighted_hypergraph(rng):
    """Random hypergraph with random vertex weights and edge weights."""
    n = rng.randint(4, 18)
    m = rng.randint(3, 24)
    pins = [sorted(rng.sample(range(n), rng.randint(2, min(6, n)))) for _ in range(m)]
    wmax = rng.choice((1, 2, 3, 6, 12))
    vertex_weight = [rng.randint(1, wmax) for _ in range(n)]
    scheme = rng.choice(("unit", "size", "random"))
    if scheme == "unit":
        edge_weight = None
    elif scheme == "size":
        edge_weight = [len(p) for p in pins]
    else:
        edge_weight = [rng.randint(1, 9) for _ in pins]
    return Hypergraph(n, pins, vertex_weight=vertex_weight, hyperedge_weight=edge_weight)


def random_window(rng, total):
    """Symmetric or asymmetric window, target inside it as the driver makes.
    A symmetric draw whose window holds no integer weight is replaced by an
    asymmetric one."""
    if rng.random() < 0.4:
        try:
            return BalanceWindow.symmetric(total, rng.choice((0.02, 0.1, 0.3)))
        except InfeasibleBalanceError:
            pass
    lower = rng.randint(1, max(1, total - 1))
    upper = min(total, lower + rng.randint(0, max(1, total // 4)))
    target = rng.uniform(lower, upper)
    return BalanceWindow(lower, upper, target)


def random_start(rng, h):
    n = h.num_vertices
    kind = rng.choice(("random", "one-vs-rest", "rest-vs-one"))
    if kind == "random":
        assignment = [rng.randrange(2) for _ in range(n)]
        assignment[0], assignment[-1] = 0, 1
    else:
        lone = 1 if kind == "one-vs-rest" else 0
        assignment = [1 - lone] * n
        assignment[rng.randrange(n)] = lone
    return assignment


def fuzz_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        h = weighted_hypergraph(rng)
        window = random_window(rng, h.total_vertex_weight)
        mode = rng.choice(("bfm", "fm-ee"))
        exit_window = rng.choice((1, 3, 50))
        yield rng, h, window, mode, exit_window, random_start(rng, h)


class TestDifferentialFm:
    """Both differential tests on the pin-walking gain update."""

    dense = False

    @pytest.fixture(autouse=True)
    def gain_path(self, monkeypatch):
        monkeypatch.setattr(model, "is_dense", lambda h: self.dense)

    def test_refine_bipartition_matches_reference(self, monkeypatch):
        # refine_bipartition returns the cut it ends on; the reference
        # sums the passes' deltas from the starting cut.
        for rng, h, window, mode, exit_window, start in fuzz_cases(101, 300):
            monkeypatch.setattr(refine, "EARLY_EXIT_WINDOW", exit_window)
            passes = rng.randint(1, 6)
            *expected, expected_delta = reference_refine(
                h, start, window, mode, exit_window, passes)
            p = Partition.from_assignment(h, 2, start)
            initial = partition_cost(h, p)
            cost = refine_bipartition(h, p, mode, window=window, max_passes=passes)
            assert [p.assignment, p.part_weight] == expected
            assert cost == partition_cost(h, p)
            assert cost - initial == expected_delta
            assert (model.dense_tables(h) is not None) == self.dense

    def test_audited_pass_matches_reference(self, monkeypatch):
        # Both gain updates run inside the shared _FmState.apply_move,
        # so the moves are recorded there.
        moves = []
        apply_move = _FmState.apply_move

        def recorded(state, v):
            moves.append(v)
            apply_move(state, v)

        monkeypatch.setattr(_FmState, "apply_move", recorded)
        early_exits = 0
        for _, h, window, mode, exit_window, start in fuzz_cases(202, 150):
            monkeypatch.setattr(refine, "EARLY_EXIT_WINDOW", exit_window)
            *expected, expected_moves, exited_early = reference_fm_pass(
                h, start, window, mode, exit_window)
            p = Partition.from_assignment(h, 2, start)
            moves.clear()
            cost, delta = fm_pass(h, p, mode, window=window, audit=True)
            assert [p.assignment, p.part_weight, delta] == expected
            assert cost == partition_cost(h, p)
            assert moves == expected_moves
            assert (model.dense_tables(h) is not None) == self.dense
            early_exits += exited_early
        # Some fm-ee passes stop on the stall rule with moves left.
        assert early_exits > 0


class TestDifferentialFmDense(TestDifferentialFm):
    """Both differential tests on the bit-parallel gain update."""

    dense = True


class TestSelectionCases:
    @pytest.mark.parametrize("dense", (False, True))
    def test_fuzz_reaches_every_case(self, monkeypatch, dense):
        # The differential fuzz must reach each way a side is settled: its
        # top bucket, a blocked side and the bucket walk.
        monkeypatch.setattr(model, "is_dense", lambda h: dense)
        outcomes = {"top": 0, "blocked": 0, "walk": 0}
        side_best = _FmState._side_best

        def counted(state, a):
            if state.buckets[a]:
                limit = state.limit(a)
                case = ("top" if limit >= state.wmax
                        else "blocked" if limit < state.wmin else "walk")
                outcomes[case] += 1
            return side_best(state, a)

        monkeypatch.setattr(_FmState, "_side_best", counted)
        for cases in (fuzz_cases(101, 300), fuzz_cases(202, 150)):
            for _, h, window, mode, exit_window, start in cases:
                monkeypatch.setattr(refine, "EARLY_EXIT_WINDOW", exit_window)
                fm_pass(h, Partition.from_assignment(h, 2, start), mode, window=window)
                assert (model.dense_tables(h) is not None) == dense
        assert min(outcomes.values()) > 0, outcomes


class TestRecount:
    def test_matches_scalar_recount(self):
        # The audit compares the incremental state with _recount, so
        # _recount itself is checked against the scalar loop here.
        rng = random.Random(505)
        for trial in range(400):
            if trial % 2:
                h = weighted_hypergraph(rng)
            else:
                h = random_weighted_hypergraph(rng, max_weight=9)
            n = h.num_vertices
            kind = rng.choice(("random", "all-0", "all-1", "lone"))
            if kind == "random":
                assignment = [rng.randrange(2) for _ in range(n)]
            else:
                assignment = [1 if kind == "all-1" else 0] * n
                if kind == "lone":
                    assignment[rng.randrange(n)] = 1
            expected = reference_recount(h, assignment)
            assert _recount(h, assignment) == expected, f"trial {trial}"
            assert expected[1] == reference_gains(h, assignment), f"trial {trial}"
            assert expected[2] == naive_cost(h, assignment), f"trial {trial}"


class TestAdmissibility:
    def test_limit_matches_per_weight_rule(self):
        # For every weight on both sides, a vertex may move exactly when
        # it is within the side's integer limit: at the start of a pass
        # and after each of a few moves, so unbalanced states with v > 0
        # are covered on both ends of the window.
        unbalanced = 0
        for _, h, window, mode, _, start in fuzz_cases(303, 300):
            p = Partition.from_assignment(h, 2, start)
            state = _FmState(h, p, window, boundary_only=(mode == "bfm"))
            for _ in range(4):
                unbalanced += state.violation > 0
                for side in (0, 1):
                    limit = state.limit(side)
                    assert type(limit) is int
                    verdicts = [w <= limit for w in range(1, h.total_vertex_weight + 1)]
                    assert verdicts == [weight_admissible(h, window, p.part_weight, side, w)
                                        for w in range(1, h.total_vertex_weight + 1)]
                v = state.select()
                if v is None:
                    break
                state.apply_move(v)
        assert unbalanced > 100

    def test_matches_reference_per_vertex(self):
        for _, h, window, _, _, start in fuzz_cases(404, 100):
            p = Partition.from_assignment(h, 2, start)
            state = _FmState(h, p, window, boundary_only=False)
            for v in range(h.num_vertices):
                assert ((h.vertex_weight[v] <= state.limit(p.assignment[v]))
                        == reference_admissible(h, window, p.assignment, p.part_weight, v))

    def test_empty_window_rejected(self, path4):
        p = Partition.from_assignment(path4, 2, [0, 0, 1, 1])
        with pytest.raises(ValueError):
            fm_pass(path4, p, "bfm", window=BalanceWindow(3.0, 1.0, 2.0))


class TestAudit:
    def fresh_state(self):
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]],
                       vertex_weight=[1, 2, 1, 3, 1, 2])
        p = Partition.from_assignment(h, 2, [0, 0, 0, 1, 1, 1])
        state = _FmState(h, p, BalanceWindow.symmetric(h.total_vertex_weight, 0.2),
                         boundary_only=False)
        state.audit()
        return state

    def dense_state(self, monkeypatch):
        # The same hypergraph with hyperedge weights of two bits.
        monkeypatch.setattr(model, "is_dense", lambda h: True)
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]],
                       vertex_weight=[1, 2, 1, 3, 1, 2], hyperedge_weight=[1, 3, 2, 1])
        p = Partition.from_assignment(h, 2, [0, 0, 0, 1, 1, 1])
        state = _DenseFmState(h, p, BalanceWindow.symmetric(h.total_vertex_weight, 0.2),
                              boundary_only=False)
        state.audit()
        # Side 1 holds 0, 1, 3 and 1 pins of the four hyperedges.
        assert state.planes[1] == [0b1110, 0b0100]
        return state

    def test_detects_dense_count_drift(self, monkeypatch):
        state = self.dense_state(monkeypatch)
        state.planes[0][0] ^= 1 << 2
        with pytest.raises(FmAuditError, match="pin count"):
            state.audit()

    def test_detects_dense_cost_drift(self, monkeypatch):
        state = self.dense_state(monkeypatch)
        state.apply_move(2)
        state.audit()
        state.cost += 1
        with pytest.raises(FmAuditError, match="cost"):
            state.audit()

    def test_detects_gain_drift(self):
        state = self.fresh_state()
        state.gains[4] += 1
        with pytest.raises(FmAuditError):
            state.audit()

    def test_detects_misplaced_vertex(self):
        state = self.fresh_state()
        gain = state.gains[1]
        state.buckets[0][gain].discard(1)
        state.buckets[1].setdefault(gain, set()).add(1)
        with pytest.raises(FmAuditError):
            state.audit()

    def test_detects_empty_bucket(self):
        state = self.fresh_state()
        state.buckets[0][10**6] = set()
        with pytest.raises(FmAuditError):
            state.audit()

    def test_detects_listed_empty_bucket(self):
        state = self.fresh_state()
        state.buckets[0][10**6] = set()
        state.keys[0].append(10**6)
        with pytest.raises(FmAuditError, match="empty bucket"):
            state.audit()

    def test_detects_gain_missing_from_list(self):
        state = self.fresh_state()
        assert state.keys[1]
        state.keys[1].pop()
        with pytest.raises(FmAuditError, match="gain list"):
            state.audit()

    def test_detects_stale_gain_in_list(self):
        # A gain whose bucket is gone; the list must not keep it.
        state = self.fresh_state()
        stale = max(state.keys[0]) + 1
        state.keys[0].append(stale)
        assert stale not in state.buckets[0]
        with pytest.raises(FmAuditError, match="gain list"):
            state.audit()

    def test_detects_missing_eligible_vertex(self):
        state = self.fresh_state()
        gain = state.gains[2]
        state.buckets[0][gain].discard(2)
        if not state.buckets[0][gain]:
            del state.buckets[0][gain]
        state.state[2] = False
        with pytest.raises(FmAuditError, match="missing from the buckets"):
            state.audit()

    def test_detects_missing_eligible_vertex_dense(self, monkeypatch):
        # A bfm state: only the pins of cut hyperedges start in the
        # buckets, and vertex 2 is a pin of the cut hyperedge [2, 3].
        monkeypatch.setattr(model, "is_dense", lambda h: True)
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]],
                       vertex_weight=[1, 2, 1, 3, 1, 2], hyperedge_weight=[1, 3, 2, 1])
        p = Partition.from_assignment(h, 2, [0, 0, 0, 1, 1, 1])
        state = _DenseFmState(h, p, BalanceWindow.symmetric(h.total_vertex_weight, 0.2),
                              boundary_only=True)
        state.audit()
        assert state.state == [True, False, True, True, False, True]
        gain = state.gains[2]
        state.buckets[0][gain].discard(2)
        if not state.buckets[0][gain]:
            del state.buckets[0][gain]
            state.keys[0].remove(gain)
        state.state[2] = False
        with pytest.raises(FmAuditError, match="missing from the buckets"):
            state.audit()

    def test_detects_stale_violation(self):
        state = self.fresh_state()
        state.violation += 1.0
        with pytest.raises(FmAuditError):
            state.audit()
