"""Differential tests of the FM engine against a scalar reference FM.

The reference, ``reference_fm_pass`` of ``tests/reference.py``,
recounts gains and cost from scratch before every move and selects
moves the plain way: it walks the distinct gains in descending order
and, per gain and side, scans for the lowest-id admissible vertex. The engine in ``hypart.refine`` keeps incremental
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

The audited passes check the engine's incremental state before every
move selection with ``audit_fm_state``, which recounts with the scalar
``reference_recount`` rather than with the engine's own ``_recount``.
"""

import random

import pytest

from hypart import (BalanceWindow, Hypergraph, InfeasibleBalanceError, Partition,
                    fm_pass, partition_cost, refine_bipartition)
from hypart import model, refine
from hypart.dense import _DenseFmState
from hypart.refine import _FmState, _recount

from conftest import random_weighted_hypergraph
from reference import (FmAuditError, audit_before, audit_fm_state, naive_cost,
                       reference_admissible, reference_fm_pass, reference_gains,
                       reference_recount, reference_refine)


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
        # so the moves are recorded there; both states select through
        # _FmState.select, which is audited.
        monkeypatch.setattr(_FmState, "select", audit_before(_FmState.select))
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
            cost, delta = fm_pass(h, p, mode, window=window)
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
        # Every FM state starts from _recount's counts, so _recount
        # itself is checked against the scalar loop here.
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
    """Each corruption of a fresh state must raise from
    ``audit_fm_state`` with its message; the corruptions that apply to
    both FM states are made to each."""

    def make_state(self, monkeypatch, dense, boundary_only=False):
        # Hyperedge weights of two bits give the dense state two weight
        # planes.
        monkeypatch.setattr(model, "is_dense", lambda h: dense)
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]],
                       vertex_weight=[1, 2, 1, 3, 1, 2], hyperedge_weight=[1, 3, 2, 1])
        p = Partition.from_assignment(h, 2, [0, 0, 0, 1, 1, 1])
        kind = _DenseFmState if dense else _FmState
        state = kind(h, p, BalanceWindow.symmetric(h.total_vertex_weight, 0.2),
                     boundary_only=boundary_only)
        audit_fm_state(state)
        if dense:
            # Side 1 holds 0, 1, 3 and 1 pins of the four hyperedges.
            assert state.planes[1] == [0b1110, 0b0100]
        return state

    def states(self, monkeypatch):
        """A fresh fm-ee state of each kind: walking, then dense."""
        for dense in (False, True):
            yield self.make_state(monkeypatch, dense)

    def test_detects_count_drift(self, monkeypatch):
        state = self.make_state(monkeypatch, dense=False)
        state.count0[2] ^= 1
        with pytest.raises(FmAuditError, match="incremental pin count drift"):
            audit_fm_state(state)

    def test_detects_dense_count_drift(self, monkeypatch):
        state = self.make_state(monkeypatch, dense=True)
        state.planes[0][0] ^= 1 << 2
        with pytest.raises(FmAuditError, match="incremental pin count drift"):
            audit_fm_state(state)

    def check_cost_drift(self, state):
        state.apply_move(2)
        audit_fm_state(state)
        state.cost += 1
        with pytest.raises(FmAuditError, match="incremental cost drift: 3 != 2"):
            audit_fm_state(state)

    def test_detects_cost_drift(self, monkeypatch):
        self.check_cost_drift(self.make_state(monkeypatch, dense=False))

    def test_detects_dense_cost_drift(self, monkeypatch):
        self.check_cost_drift(self.make_state(monkeypatch, dense=True))

    def test_detects_gain_drift(self, monkeypatch):
        for state in self.states(monkeypatch):
            state.gains[4] += 1
            with pytest.raises(FmAuditError, match="gain drift at vertex 4"):
                audit_fm_state(state)

    def test_detects_misplaced_vertex(self, monkeypatch):
        # Vertex 1 is alone in its bucket, which the move leaves empty.
        for state in self.states(monkeypatch):
            gain = state.gains[1]
            state.buckets[0][gain].discard(1)
            state.buckets[1].setdefault(gain, set()).add(1)
            with pytest.raises(FmAuditError, match=f"empty bucket for gain {gain} on side 0"):
                audit_fm_state(state)

    def test_detects_empty_bucket(self, monkeypatch):
        for state in self.states(monkeypatch):
            state.buckets[0][10**6] = set()
            with pytest.raises(FmAuditError, match="gain list of side 0"):
                audit_fm_state(state)

    def test_detects_listed_empty_bucket(self, monkeypatch):
        for state in self.states(monkeypatch):
            state.buckets[0][10**6] = set()
            state.keys[0].append(10**6)
            with pytest.raises(FmAuditError, match="empty bucket"):
                audit_fm_state(state)

    def test_detects_gain_missing_from_list(self, monkeypatch):
        for state in self.states(monkeypatch):
            assert state.keys[1]
            state.keys[1].pop()
            with pytest.raises(FmAuditError, match="gain list"):
                audit_fm_state(state)

    def test_detects_stale_gain_in_list(self, monkeypatch):
        # A gain whose bucket is gone; the list must not keep it.
        for state in self.states(monkeypatch):
            stale = max(state.keys[0]) + 1
            state.keys[0].append(stale)
            assert stale not in state.buckets[0]
            with pytest.raises(FmAuditError, match="gain list"):
                audit_fm_state(state)

    def unbucket(self, state, u):
        """Take ``u`` out of the buckets without locking it."""
        gain = state.gains[u]
        state.buckets[0][gain].discard(u)
        if not state.buckets[0][gain]:
            del state.buckets[0][gain]
            state.keys[0].remove(gain)
        state.state[u] = False

    def test_detects_missing_eligible_vertex(self, monkeypatch):
        for state in self.states(monkeypatch):
            self.unbucket(state, 2)
            with pytest.raises(FmAuditError, match="missing from the buckets"):
                audit_fm_state(state)

    def test_detects_missing_eligible_vertex_dense(self, monkeypatch):
        # A bfm state: only the pins of cut hyperedges start in the
        # buckets, and vertex 2 is a pin of the cut hyperedge [2, 3].
        state = self.make_state(monkeypatch, dense=True, boundary_only=True)
        assert state.state == [True, False, True, True, False, True]
        self.unbucket(state, 2)
        with pytest.raises(FmAuditError, match="missing from the buckets"):
            audit_fm_state(state)

    def test_detects_stale_violation(self, monkeypatch):
        for state in self.states(monkeypatch):
            state.violation += 1.0
            with pytest.raises(FmAuditError, match="stale balance violation"):
                audit_fm_state(state)

    def test_independent_of_recount(self, monkeypatch):
        # The walking state takes its starting counts from _recount. With
        # _recount overstating every cut by one, an audit that recounted
        # with _recount would agree with the state; the scalar recount
        # does not.
        monkeypatch.setattr(model, "is_dense", lambda h: False)
        recount = refine._recount

        def overstated(h, assignment):
            count0, gains, cost = recount(h, assignment)
            return count0, gains, cost + 1

        monkeypatch.setattr(refine, "_recount", overstated)
        monkeypatch.setattr(_FmState, "select", audit_before(_FmState.select))
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5]])
        p = Partition.from_assignment(h, 2, [0, 0, 0, 1, 1, 1])
        with pytest.raises(FmAuditError, match="incremental cost drift: 3 != 2"):
            fm_pass(h, p, "fm-ee", BalanceWindow.symmetric(h.total_vertex_weight, 0.2))
