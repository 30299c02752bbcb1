"""QP solver and KKT implicit differentiation."""
from dataclasses import replace

import numpy as np
import pytest

from dflsched import qp
from conftest import (complementarity_margin, enumerate_active_sets,
                      random_strictly_convex_qp, rel_err)


def solve_tight(problem, tol=1e-10):
    sol = qp.solve(problem, tolerance=tol, max_iter=100)
    assert sol.status == qp.QpStatus.OPTIMAL
    return sol


class TestSolve:
    def test_single_active_constraint(self):
        # min 1/2 u^2 s.t. -u <= -1: stationarity gives u = mu = 1
        p = qp.QpProblem(1, [[1.0]], [0.0], None, None, [[-1.0]], [-1.0])
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        np.testing.assert_allclose(s.primal, [1.0], atol=1e-8)
        np.testing.assert_allclose(s.dual_in, [1.0], atol=1e-7)
        assert abs(s.objective_value - 0.5) < 1e-7

    def test_unconstrained_minimum(self):
        p = qp.QpProblem(1, [[1.0]], [-3.0])
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        np.testing.assert_allclose(s.primal, [3.0], atol=1e-10)
        assert abs(s.objective_value - (-4.5)) < 1e-10

    def test_random_qp_against_enumeration_oracle(self, rng):
        p = random_strictly_convex_qp(rng, n=6, m_eq=2, m_in=4)
        s = solve_tight(p)
        oracle = enumerate_active_sets(p)
        assert oracle is not None
        u_star, obj_star, _, _ = oracle
        assert abs(s.objective_value - obj_star) < 1e-6
        np.testing.assert_allclose(s.primal, u_star, atol=1e-6)

    def test_infeasible_detected(self):
        p = qp.QpProblem(1, [[1.0]], [0.0], None, None,
                         [[1.0], [-1.0]], [-1.0, -1.0])
        assert qp.solve(p).status == qp.QpStatus.INFEASIBLE

    def test_inconsistent_equalities_detected(self):
        # dependent rows, two singleton rows fixing u0 twice, and an all-zero
        # row reading 0 = 1; each with and without an inequality row
        for A, b in (([[1.0, 1.0], [2.0, 2.0]], [1.0, 3.0]),
                     ([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0]),
                     ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0])):
            for G, h in ((None, None), ([[0.0, 1.0]], [5.0])):
                p = qp.QpProblem(2, np.eye(2), [0.0, 0.0], A, b, G, h)
                assert qp.solve(p).status == qp.QpStatus.INFEASIBLE, (A, G)

    @pytest.mark.parametrize("inequalities", [True, False])
    def test_singleton_rows_keep_their_duals(self, inequalities):
        # A = I fixes u = b; stationarity u + q + y = 0 gives y = -(b + q)
        G, h = ([[1.0, 1.0]], [1.0]) if inequalities else (None, None)
        p = qp.QpProblem(2, np.eye(2), [1.0, -1.0], np.eye(2), [0.5, 0.25], G, h)
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        np.testing.assert_allclose(s.primal, [0.5, 0.25], atol=1e-8)
        np.testing.assert_allclose(s.dual_eq, [-1.5, 0.75], atol=1e-7)

    @pytest.mark.parametrize("b,h,optimal", [
        (None, None, True), (None, [0.0], True), (None, [1.0], True),
        (None, [-1.0], False), ([0.0], None, True), ([1.0], None, False)])
    def test_no_variables(self, b, h, optimal):
        # with no variables the empty point is optimal exactly when b = 0 <= h
        A = None if b is None else np.zeros((1, 0))
        G = None if h is None else np.zeros((1, 0))
        s = qp.solve(qp.QpProblem(0, np.zeros((0, 0)), [], A, b, G, h))
        assert (s.status == qp.QpStatus.OPTIMAL) == optimal
        assert s.primal.shape == (0,)

    def test_unbounded_detected(self):
        p = qp.QpProblem(1, [[0.0]], [-1.0])
        assert qp.solve(p).status == qp.QpStatus.UNBOUNDED

    def test_redundant_equality_rows_solved(self):
        # a duplicated consistent row, or an all-zero row reading 0 = 0, must
        # not break the solve, with or without an inequality row
        for A, b in (([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]),
                     ([[1.0, 1.0], [0.0, 0.0]], [2.0, 0.0])):
            for G, h in ((None, None), ([[1.0, 0.0]], [5.0])):
                p = qp.QpProblem(2, np.eye(2), [0.0, 0.0], A, b, G, h)
                s = qp.solve(p)
                assert s.status == qp.QpStatus.OPTIMAL, (A, G)
                np.testing.assert_allclose(s.primal, [1.0, 1.0], atol=1e-8)

    @staticmethod
    def chain_with_copied_row(extra_b0: float, inequalities: bool):
        # 410 rows u_i + u_{i+1} = 1 over 420 variables plus a copy of row 0
        # with right-hand side 1 + extra_b0: more than 400 equalities, each
        # coupling two variables, whose contradiction only the least-norm
        # start can certify
        import scipy.sparse as sp
        n, m = 420, 410
        rows = np.repeat(np.arange(m), 2)
        cols = np.stack([np.arange(m), np.arange(m) + 1], axis=1).ravel()
        A = sp.csr_matrix((np.ones(2 * m), (rows, cols)), shape=(m, n))
        A = sp.vstack([A, A[0]], format="csr")
        b = np.ones(m + 1)
        b[-1] += extra_b0
        q = np.linspace(-1.0, 1.0, n)
        if not inequalities:
            return qp.QpProblem(n, sp.identity(n), q, A, b)
        return qp.QpProblem(n, sp.identity(n), q, A, b,
                            sp.identity(n, format="csr"), np.full(n, 0.7))

    def test_large_inconsistent_equalities_detected(self):
        p = self.chain_with_copied_row(0.1, inequalities=True)
        assert p.num_eq > 400 and p.num_in
        assert qp.solve(p).status == qp.QpStatus.INFEASIBLE

    def test_large_inconsistent_equalities_detected_without_inequalities(self):
        p = self.chain_with_copied_row(0.1, inequalities=False)
        assert p.num_eq > 400 and not p.num_in
        assert qp.solve(p).status == qp.QpStatus.INFEASIBLE

    @pytest.mark.parametrize("inequalities", [True, False])
    @pytest.mark.parametrize("extra_b0", [1e-6, 1e-7])
    def test_small_contradiction_detected(self, extra_b0, inequalities):
        # the least-norm start leaves extra_b0 / 2 in Au - b, above the
        # default tolerance of 1e-8, though the whole KKT solve is accurate
        # to 1e-6 of |rhs|
        p = self.chain_with_copied_row(extra_b0, inequalities)
        assert qp.solve(p).status == qp.QpStatus.INFEASIBLE

    def test_negligible_contradiction_solved(self):
        p = self.chain_with_copied_row(1e-12, inequalities=True)
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        assert s.kkt_residual <= 1e-8

    def test_large_redundant_equality_row_solved(self):
        p = self.chain_with_copied_row(0.0, inequalities=True)
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        assert s.kkt_residual <= 1e-8
        np.testing.assert_allclose(p.A @ s.primal, p.b, atol=1e-8)
        assert np.all(s.primal <= 0.7 + 1e-8)

    def test_scaling_invariance(self, rng):
        # multiplying (Q, q) by c > 0 keeps the primal, scales the duals
        p = random_strictly_convex_qp(rng, n=5, m_eq=1, m_in=4)
        c = 3.7
        p2 = qp.QpProblem(p.num_vars, c * p.Q.toarray(), c * p.q,
                          p.A.toarray(), p.b, p.G.toarray(), p.h)
        s1 = solve_tight(p)
        s2 = solve_tight(p2)
        np.testing.assert_allclose(s1.primal, s2.primal, atol=1e-8)
        np.testing.assert_allclose(c * s1.dual_in, s2.dual_in, atol=1e-6)
        np.testing.assert_allclose(c * s1.dual_eq, s2.dual_eq, atol=1e-6)

    def test_property_suite_random_instances(self):
        """50 strictly convex feasible QPs: residual <= 1e-8 and objective
        within 1e-6 of the enumeration oracle."""
        rng = np.random.default_rng(7)
        count = 0
        while count < 50:
            n = int(rng.integers(2, 10))
            m_eq = int(rng.integers(0, max(1, n // 2) + 1))
            m_in = int(rng.integers(1, 7))
            p = random_strictly_convex_qp(rng, n, m_eq, m_in)
            s = qp.solve(p, tolerance=1e-8, max_iter=100)
            assert s.status == qp.QpStatus.OPTIMAL
            assert s.kkt_residual <= 1e-8
            oracle = enumerate_active_sets(p)
            assert oracle is not None
            assert abs(s.objective_value - oracle[1]) < 1e-6
            count += 1


def schedule_qp(zones: int, horizon: int = 24) -> qp.QpProblem:
    """The scheduling QP of a seed-7 building on a day whose ambient swings
    6 K around 2 C, from zones all at 19 C."""
    from dflsched import rc, scheduler
    from dflsched.scenarios import DayScenario
    topo = rc.default_topology(zones)
    hours = np.arange(horizon)
    scenario = DayScenario(
        ambient=2.0 + 6.0 * np.sin(2 * np.pi * (hours - 9) / 24),
        initial_tau=np.full(zones, 19.0), label=0, weight=1.0)
    problem, _ = scheduler.assemble(
        rc.default_theta(zones, seed=7), scenario, scheduler.default_tariff(horizon),
        scheduler.default_schedule_config(topo, horizon=horizon))
    return problem


def newton_reference(p, G, D):
    """The Newton matrix of ``KktStructure.newton`` assembled afresh with sp.bmat."""
    import scipy.sparse as sp
    n, m_eq = p.num_vars, p.num_eq
    top = p.Q + G.T @ sp.diags(D) @ G + qp._IPM_REG * sp.identity(n)
    ref = sp.bmat([[top, p.A.T], [p.A, -qp._IPM_REG * sp.identity(m_eq)]]
                  ) if m_eq else top
    return ref.tocsc()


class TestNewtonKkt:
    @pytest.mark.parametrize("m_eq", [0, 2])
    def test_matches_direct_assembly(self, rng, m_eq):
        # the fixed-pattern Newton matrix against a fresh sparse assembly,
        # including an all-zero inequality row and refreshed scalings
        import scipy.sparse as sp
        n, m_in = 6, 5
        p = random_strictly_convex_qp(rng, n, m_eq, m_in)
        G = p.G.toarray()
        G[2] = 0.0
        G = sp.csr_matrix(G)
        kkt = qp._OneShotKkt().newton(replace(p, G=G))
        for _ in range(2):
            D = rng.uniform(0.0, 1e3, size=m_in)
            ref = newton_reference(p, G, D)
            K = kkt.newton_matrix(D)
            assert K.format == "csc"
            np.testing.assert_allclose(K.toarray(), ref.toarray(),
                                       rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("zones", [1, 3])
    def test_factor_in_stored_order_solves_like_fresh_splu(self, rng, zones):
        # a structure stores the Newton matrix as P K P' in its pattern's
        # symmetric order; factors at any scaling work on that stored matrix
        # and must solve K(D) x = r as accurately as a fresh factorization
        import scipy.sparse.linalg as spla
        p = schedule_qp(zones, horizon=6)
        size = p.num_vars + p.num_eq
        kkt = qp.KktStructure(p.Q, p.A, p.G).newton(p)
        for k in range(3):
            D = rng.uniform(0.0, 1e3, size=p.num_in)
            solve = kkt.newton_factor(D)
            ref = newton_reference(p, p.G, D)
            r = rng.normal(size=size)
            x, fresh = solve(r), spla.splu(ref).solve(r)
            floor = 1e-14 * np.abs(r).max()
            assert np.abs(ref @ x - r).max() <= 10 * max(np.abs(ref @ fresh - r).max(), floor), k
            np.testing.assert_allclose(x, fresh, rtol=1e-10, atol=1e-12)
        # the order moves rows and columns, so a wrong gather map or a
        # missing permutation of the right-hand side or the result shows
        assert not np.array_equal(kkt._order, np.arange(size))

    @pytest.mark.parametrize("m_eq", [0, 2])
    def test_primed_structure_writes_each_problems_values(self, rng, m_eq):
        # a structure built from one problem's patterns stores the Newton
        # matrix as P K P' in its pattern's order and takes every value,
        # static part and scaling map alike, from the problem it is given
        import scipy.sparse as sp
        p = random_strictly_convex_qp(rng, 6, m_eq, 5)
        G = p.G.toarray()
        G[2] = 0.0
        p = replace(p, G=sp.csr_matrix(G))
        kkt = qp.KktStructure(p.Q, p.A, p.G)
        for scale in (1.0, 3.0, 0.5):
            other = replace(p, Q=p.Q * scale, A=p.A * (1 + scale), G=p.G * scale)
            kkt.newton(other)
            D = rng.uniform(0.0, 1e3, size=5)
            order = kkt._order
            ref = newton_reference(other, other.G, D).toarray()[np.ix_(order, order)]
            np.testing.assert_allclose(kkt.newton_matrix(D).toarray(), ref,
                                       rtol=1e-13, atol=1e-12)


class TestKktMatrix:
    @pytest.mark.parametrize("H", ["Q", "I"])
    @pytest.mark.parametrize("m_eq,active", [(2, [0, 2, 3]), (0, [1, 3]), (2, []),
                                             (2, [2])])
    def test_matches_direct_assembly(self, rng, H, m_eq, active):
        # against sp.bmat: with and without A rows and G rows, and with an
        # all-zero G row (row 2); every diagonal entry must be stored
        import scipy.sparse as sp
        n, m_in = 6, 5
        p = random_strictly_convex_qp(rng, n, m_eq, m_in)
        G = p.G.toarray()
        G[2] = 0.0
        G = sp.csr_matrix(G)
        Hm = p.Q if H == "Q" else sp.identity(n, format="csr")
        C = sp.vstack([p.A, G[active]], format="csr")
        ref = sp.bmat([[Hm, C.T], [C, sp.csr_matrix((C.shape[0], C.shape[0]))]])
        K, diag, extra, _ = qp._kkt_matrix(Hm, p.A, G, np.array(active, dtype=int))
        assert K.format == "csc" and K.has_sorted_indices
        np.testing.assert_array_equal(K.toarray(), ref.toarray())
        np.testing.assert_array_equal(
            K.indices[diag], np.arange(n + m_eq + len(active)))
        assert extra.size == 0

    @pytest.mark.parametrize("m_eq", [0, 2])
    def test_bordered_rows_equal_direct_assembly(self, rng, m_eq):
        # a reusing structure takes the polish and adjoint matrices as rows
        # and columns of its stored bordered pattern; each must equal, to
        # the last bit and stored entry, P K_S P' for the matrix K_S built
        # for its active rows alone and the system's order
        import scipy.sparse as sp
        p = random_strictly_convex_qp(rng, 6, m_eq, 5)
        G = p.G.toarray()
        G[2] = 0.0
        p = replace(p, G=sp.csr_matrix(G))
        system = qp.KktStructure(p.Q, p.A, p.G).bordered(p)
        for active in ([], [2], [0, 2, 3], [0, 1, 2, 3, 4], [4]):
            rows = np.array(active, dtype=int)
            K, diag, order, n, _ = system(rows)
            ref, _, _, _ = qp._kkt_matrix(p.Q, p.A, p.G, rows)
            size = ref.shape[0]
            assert np.array_equal(np.sort(order), np.arange(size))
            pick = np.ix_(order, order)
            stored = sp.csc_matrix((np.ones(ref.nnz), ref.indices, ref.indptr), shape=ref.shape)
            want = sp.csc_matrix(stored.toarray()[pick])
            assert K.has_sorted_indices and K.nnz == ref.nnz
            assert K.indices.tobytes() == want.indices.tobytes()
            assert K.indptr.tobytes() == want.indptr.tobytes()
            assert K.toarray().tobytes() == ref.toarray()[pick].tobytes()
            np.testing.assert_array_equal(K.indices[diag], np.arange(size))
            assert n == p.num_vars


class TestPolish:
    @staticmethod
    def saturated_schedule_qp():
        # a cold day on one floor of five zones whose floor heating cap equals
        # the sum of its zone caps: every hour the floor cap binds together
        # with all five zone caps, so the active rows are dependent
        from dflsched import rc, scheduler
        from dflsched.scenarios import DayScenario
        topo = rc.default_topology(5)
        config = scheduler.default_schedule_config(topo, zone_cap_h=2.0,
                                                   floor_cap_h=10.0)
        hours = np.arange(24)
        scenario = DayScenario(
            ambient=-10.0 + 3.0 * np.sin(2 * np.pi * (hours - 9) / 24),
            initial_tau=np.full(5, 17.0), label=0, weight=1.0)
        problem, idx = scheduler.assemble(rc.default_theta(5, seed=7), scenario,
                                          scheduler.default_tariff(24), config)
        return problem, idx

    def test_dependent_caps_polish_in_one_round(self, monkeypatch):
        p, idx = self.saturated_schedule_qp()
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL
        assert s.kkt_residual <= 1e-12
        assert s.polish_rounds == 1
        assert np.all(s.dual_in >= 0.0)
        np.testing.assert_allclose(s.primal[idx.p_h], 2.0, atol=1e-9)

        # refinement from zero instead of from the interior-point iterate
        # splits the dependent multipliers arbitrarily, and the polish loops
        cold_solve_kkt = qp._solve_kkt
        monkeypatch.setattr(
            qp, "_solve_kkt", lambda system, rhs, v0=None: cold_solve_kkt(system, rhs))
        cold = qp.solve(p)
        assert cold.status == qp.QpStatus.OPTIMAL
        assert cold.polish_rounds > 1
        np.testing.assert_allclose(s.primal, cold.primal, rtol=0, atol=1e-9)


def schedule_qps(zones, count):
    """``count`` scheduling QPs of one pattern, each with its own theta,
    ambient and initial temperatures."""
    from dflsched import rc, scheduler
    from dflsched.scenarios import DayScenario
    topo, hours = rc.default_topology(zones), np.arange(24)
    tariff = scheduler.default_tariff(24)
    config = scheduler.default_schedule_config(topo)
    return [scheduler.assemble(
        rc.default_theta(zones, seed=7 + k),
        DayScenario(ambient=k + 6.0 * np.sin(2 * np.pi * (hours - 9) / 24),
                    initial_tau=np.full(zones, 18.0 + k / 4), label=0, weight=1.0),
        tariff, config)[0] for k in range(count)]


def counting_splu(monkeypatch) -> list:
    """Record the permc_spec of every scipy splu call qp makes from now on."""
    import scipy.sparse.linalg as spla
    specs, splu = [], spla.splu

    def counting(K, permc_spec="COLAMD", **kwargs):
        specs.append(permc_spec)
        return splu(K, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(qp.spla, "splu", counting)
    return specs


def solution_bytes(s, sens=None):
    arrays = [s.primal, s.dual_eq, s.dual_in] + ([sens.v_u, sens.v_y, sens.v_mu] if sens else [])
    return [a.tobytes() for a in arrays], (s.iterations, s.polish_rounds, s.factorizations)


class TestKktStructure:
    def test_refuses_a_problem_of_another_pattern(self, rng):
        p = schedule_qp(3)
        structure = qp.KktStructure(p.Q, p.A, p.G)
        other = replace(p, G=p.G[:-1], h=p.h[:-1])  # one inequality row fewer
        for bad in (other, schedule_qp(2), random_strictly_convex_qp(rng, 4, 1, 3)):
            with pytest.raises(qp.QpError, match="sparsity pattern differs"):
                qp.solve(bad, structure=structure)
        s = qp.solve(p)
        with pytest.raises(qp.QpError, match="sparsity pattern differs"):
            qp.backward(other, s, np.ones(p.num_vars), structure)

    def test_primed_structure_gives_the_same_bits_first_and_after_others(self):
        # the start's and Newton orders come from the patterns when the
        # structure is built, so no solve depends on the ones before it
        problems = schedule_qps(5, 4)
        p = problems[0]
        g = np.linspace(-1.0, 1.0, p.num_vars)
        structure = qp.KktStructure(p.Q, p.A, p.G)
        first = qp.solve(p, structure=structure)
        want = solution_bytes(first, qp.backward(p, first, g, structure))
        for other in problems[1:]:
            # and another problem's bits do not depend on which problem the
            # structure was built from
            own = qp.KktStructure(other.Q, other.A, other.G)
            assert (solution_bytes(qp.solve(other, structure=structure))
                    == solution_bytes(qp.solve(other, structure=own)))
        again = qp.solve(p, structure=structure)
        assert solution_bytes(again, qp.backward(p, again, g, structure)) == want
        fresh = qp.KktStructure(p.Q, p.A, p.G)
        s = qp.solve(p, structure=fresh)
        assert solution_bytes(s, qp.backward(p, s, g, fresh)) == want
        # the same point as a lone solve, to round-off
        lone = qp.solve(p)
        np.testing.assert_allclose(first.primal, lone.primal, rtol=1e-12, atol=1e-10)
        assert first.status == lone.status == qp.QpStatus.OPTIMAL

    def test_primed_structure_orders_fewer_columns(self, monkeypatch):
        # a lone solve lets SuperLU order every factorization; a primed
        # structure orders its three patterns once, when it is built, and
        # its solves factor as many matrices as a lone solve, ordering none
        p = schedule_qp(5)
        structure = qp.KktStructure(p.Q, p.A, p.G)
        specs = counting_splu(monkeypatch)
        lone = qp.solve(p)
        lone_ordered, specs[:] = specs.count(qp._ORDERING), []
        primed = qp.solve(p, structure=structure)
        assert primed.factorizations == len(specs) == lone.factorizations == lone_ordered
        assert specs.count(qp._ORDERING) == 0
        assert structure.factorizations == 3 + primed.factorizations

    def test_primed_structure_solves_and_backward_only_with_natural(self, monkeypatch):
        # no solve or backward on a primed structure orders anything: every
        # SuperLU call it makes, over several problems and a backward each,
        # takes the stored order as it is
        problems = schedule_qps(5, 3)
        structure = qp.KktStructure(problems[0].Q, problems[0].A, problems[0].G)
        specs = counting_splu(monkeypatch)
        factorizations = 0
        for p in problems:
            s = qp.solve(p, structure=structure)
            qp.backward(p, s, np.linspace(-1.0, 1.0, p.num_vars), structure)
            factorizations += s.factorizations + 1
        assert specs == ["NATURAL"] * factorizations

    @pytest.mark.parametrize("zones", [1, 3])
    def test_restricted_bordered_order_factors_the_same_matrix(self, rng, zones):
        # a row set's system takes the bordered order restricted to its rows:
        # the stored positions it keeps, in stored order.  Its NATURAL factor
        # solves the same (shifted) matrix as a fresh factor that SuperLU
        # orders itself
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        p = schedule_qp(zones, horizon=6)
        m = p.num_vars + p.num_eq
        structure = qp.KktStructure(p.Q, p.A, p.G)
        full = structure._bordered[3]
        system = structure.bordered(p)
        for rows in (np.arange(p.num_in), np.arange(0, p.num_in, 3), qp._NO_ENTRIES,
                     np.sort(rng.choice(p.num_in, p.num_in // 2, replace=False))):
            K, diag, order, n, factor = system(rows)
            kept = np.concatenate([np.arange(m), m + rows])
            # the system's index i is bordered index kept[i]
            assert np.array_equal(kept[order], full[np.isin(full, kept)])
            shifted = K.copy()
            shifted.data[diag] += 1e-6 * np.where(order < n, 1.0, -1.0)
            ref = shifted.toarray()[np.ix_(np.argsort(order), np.argsort(order))]
            r = rng.normal(size=len(order))
            x = np.empty_like(r)
            x[order] = factor(shifted)(r[order])
            fresh = spla.splu(sp.csc_matrix(ref), permc_spec=qp._ORDERING).solve(r)
            np.testing.assert_allclose(x, fresh, rtol=1e-9, atol=1e-9 * np.abs(fresh).max())


class TestSolveKkt:
    @staticmethod
    def counted(calls, change):
        """A factor map whose solution maps record each call and return
        ``change`` of the exact solve."""
        import scipy.sparse.linalg as spla

        def factor(M):
            exact = spla.splu(M).solve

            def solve(r):
                calls.append(len(r))
                return change(exact(r))
            return solve
        return factor

    def test_refinement_stops_once_a_step_fails_to_halve_the_residual(self, rng):
        # a solution map off by a constant d leaves the residual at -K d
        # after every step, so the refinement stops after one step (two
        # solves) where its cap would run six, and accepts the point
        p = random_strictly_convex_qp(rng, 6, 2, 5)
        K, diag, order, n, _ = qp._OneShotKkt().bordered(p)(np.array([0, 3]))
        rhs = rng.normal(size=K.shape[0])
        d = 1e-9 * rng.normal(size=K.shape[0])
        calls = []
        v = qp._solve_kkt((K, diag, order, n, self.counted(calls, lambda x: x + d)), rhs)
        assert len(calls) == 2
        assert np.abs(K @ v - rhs).max() <= 1e-6 * max(1.0, np.abs(rhs).max())
        # a map that removes 99% of each residual cuts it below half; the
        # refinement runs to its cap, still above 1e-15 relative
        calls[:] = []
        v = qp._solve_kkt((K, diag, order, n, self.counted(calls, lambda x: 0.99 * x)), rhs)
        assert len(calls) == 6
        assert np.abs(K @ v - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_shift_is_signed_in_the_stored_numbering(self, rng):
        # +delta on H's diagonal and -delta on the multipliers', wherever the
        # stored order puts them (checked where the diagonal holds a zero,
        # so the shifted entry is the shift itself)
        p = schedule_qp(1, horizon=6)
        K, diag, order, n, factor = qp.KktStructure(p.Q, p.A, p.G).bordered(p)(
            np.arange(0, p.num_in, 2))
        shifted = []

        def recording(M):
            shifted.append(M.diagonal())
            return factor(M)

        try:
            qp._solve_kkt((K, diag, order, n, recording), rng.normal(size=K.shape[0]))
        except qp.SingularKktError:
            pass  # a random right-hand side may be inconsistent; the shift is checked
        zero = K.diagonal() == 0.0
        want = np.where(order < n, qp._ADJOINT_REG, -qp._ADJOINT_REG)
        assert zero[order < n].any() and zero[order >= n].any()
        np.testing.assert_array_equal(shifted[0][zero], want[zero])

    def test_backward_stops_refining_at_round_off(self, monkeypatch):
        # the adjoint's residual mostly stalls near 1e-14 relative after its
        # second step, short of 1e-15, where the cap alone ran six solves a
        # factorization (three a factorization over 60 seed-7 QPs)
        import scipy.sparse.linalg as spla
        calls, splu = [], spla.splu

        class Counted:
            def __init__(self, lu):
                self.lu, self.perm_c = lu, lu.perm_c

            def solve(self, r):
                calls.append(len(r))
                return self.lu.solve(r)

        monkeypatch.setattr(qp.spla, "splu", lambda *args, **kwargs: Counted(splu(*args, **kwargs)))
        problems = schedule_qps(5, 3)
        structure = qp.KktStructure(problems[0].Q, problems[0].A, problems[0].G)
        solves = []
        for p in problems:
            s = qp.solve(p, structure=structure)
            calls[:], before = [], structure.factorizations
            qp.backward(p, s, np.linspace(-1.0, 1.0, p.num_vars), structure)
            assert structure.factorizations - before == 1
            solves.append(len(calls))
        assert max(solves) < 6 and sum(solves) < 5 * len(problems), solves


class TestEarlyPolish:
    def test_seed7_schedule_factorization_count(self, monkeypatch):
        # exact SuperLU factorizations of one 5-zone solve: the least-norm
        # start, 7 Newton steps and a 2-round polish that ends the solve at
        # iteration 8, each ordered by SuperLU on a lone solve; on a structure
        # the same solve takes the same iterations, rounds and factorizations,
        # all in stored orders.  Without the early polish this solve takes 13
        # iterations and 14 factorizations.
        p = schedule_qp(5)
        structure = qp.KktStructure(p.Q, p.A, p.G)
        specs = counting_splu(monkeypatch)
        s = qp.solve(p)
        assert s.status == qp.QpStatus.OPTIMAL and s.kkt_residual <= 1e-8
        assert (s.iterations, s.polish_rounds) == (8, 2)
        assert len(specs) == 10
        assert specs.count(qp._ORDERING) == 10
        assert s.factorizations == 10
        specs[:] = []
        primed = qp.solve(p, structure=structure)
        assert (primed.iterations, primed.polish_rounds, primed.factorizations) == (8, 2, 10)
        assert specs == ["NATURAL"] * 10

    def test_failed_try_keeps_iterating(self, monkeypatch):
        # the first try's active set alternates between two sets, so the
        # polish stops after two rounds without certifying; the interior
        # point goes on and a later try finishes the solve
        p = random_strictly_convex_qp(np.random.default_rng(33), n=3, m_eq=1, m_in=9)
        tries = []
        polish = qp._polish

        def recording(*args):
            out = polish(*args)
            tries.append((args[4], out[3], out[4]))
            return out

        monkeypatch.setattr(qp, "_polish", recording)
        s = qp.solve(p)
        first_res, first_polished, first_rounds = tries[0]
        assert first_res < qp._POLISH_FROM
        assert first_polished > 1e-8 and first_rounds == 2
        assert len(tries) > 1
        assert s.status == qp.QpStatus.OPTIMAL and s.kkt_residual <= 1e-8
        np.testing.assert_allclose(s.primal, enumerate_active_sets(p)[0], atol=1e-8)


class TestKktResidual:
    def test_exact_analytic_solution(self):
        p = qp.QpProblem(1, [[1.0]], [0.0], None, None, [[-1.0]], [-1.0])
        sol = qp.QpSolution(np.array([1.0]), np.zeros(0), np.array([1.0]),
                            0.5, qp.QpStatus.OPTIMAL, 0.0)
        assert qp.kkt_residual(p, sol) <= 1e-12

    def test_perturbed_primal_raises_residual(self, rng):
        p = random_strictly_convex_qp(rng, n=4, m_eq=1, m_in=3)
        s = solve_tight(p)
        bad = qp.QpSolution(s.primal + np.array([0.1, 0, 0, 0]), s.dual_eq,
                            s.dual_in, s.objective_value, s.status, 0.0)
        # stationarity by direct substitution: residual moves by ~|Q e_0| * 0.1
        assert qp.kkt_residual(p, bad) >= 0.05

    def test_vacuous_kkt_zero_problem(self):
        p = qp.QpProblem(3, np.zeros((3, 3)), np.zeros(3))
        sol = qp.QpSolution(np.array([4.0, -1.0, 0.0]), np.zeros(0), np.zeros(0),
                            0.0, qp.QpStatus.OPTIMAL, 0.0)
        assert qp.kkt_residual(p, sol) == 0.0

    def test_nan_primal_is_not_finite(self, rng):
        p = random_strictly_convex_qp(rng, n=4, m_eq=1, m_in=3)
        s = solve_tight(p)
        nan = qp.QpSolution(np.full(4, np.nan), s.dual_eq, s.dual_in,
                            s.objective_value, s.status, 0.0)
        assert not np.isfinite(qp.kkt_residual(p, nan))
        one_nan = qp.QpSolution(s.primal.copy(), s.dual_eq, s.dual_in,
                                s.objective_value, s.status, 0.0)
        one_nan.primal[2] = np.nan
        assert not np.isfinite(qp.kkt_residual(p, one_nan))


class TestBackward:
    def test_equality_rhs_gradient(self):
        # min 1/2 u^2 s.t. u = b has u* = b, so dL/db = 1 for L = u
        p = qp.QpProblem(1, [[1.0]], [0.0], [[1.0]], [2.0])
        s = solve_tight(p)
        sens = qp.backward(p, s, [1.0])
        np.testing.assert_allclose(sens.grad_b, [1.0], atol=1e-9)

    def test_linear_term_gradient(self):
        # min 1/2 (u - q0)^2 encoded with q = -q0: u* = -q, dL/dq = -1
        p = qp.QpProblem(1, [[1.0]], [-5.0])
        s = solve_tight(p)
        sens = qp.backward(p, s, [1.0])
        np.testing.assert_allclose(sens.grad_q, [-1.0], atol=1e-9)

    def test_all_blocks_match_finite_differences(self, rng):
        p = random_strictly_convex_qp(rng, n=6, m_eq=2, m_in=4)
        s = solve_tight(p)
        assert complementarity_margin(p, s) >= 1e-3
        g = rng.normal(size=p.num_vars)
        sens = qp.backward(p, s, g)
        Qd, Ad, Gd = p.Q.toarray(), p.A.toarray(), p.G.toarray()

        def loss(Q=None, q=None, A=None, b=None, G=None, h=None):
            prob = qp.QpProblem(
                p.num_vars, Qd if Q is None else Q, p.q if q is None else q,
                Ad if A is None else A, p.b if b is None else b,
                Gd if G is None else G, p.h if h is None else h)
            return float(g @ solve_tight(prob).primal)

        eps = 1e-5
        for block, base, grad in (("q", p.q, sens.grad_q), ("b", p.b, sens.grad_b),
                                  ("h", p.h, sens.grad_h)):
            fd = np.zeros_like(base)
            for i in range(base.size):
                up, dn = base.copy(), base.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (loss(**{block: up}) - loss(**{block: dn})) / (2 * eps)
            assert rel_err(fd, grad) <= 1e-4, block

        for block, base, grad in (("A", Ad, sens.grad_A), ("G", Gd, sens.grad_G)):
            fd = np.zeros_like(base)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    up, dn = base.copy(), base.copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    fd[i, j] = (loss(**{block: up}) - loss(**{block: dn})) / (2 * eps)
            assert rel_err(fd, grad) <= 1e-4, block

        # Q perturbed symmetrically; compare against the paired gradient
        fd = np.zeros_like(Qd)
        for i in range(p.num_vars):
            for j in range(p.num_vars):
                up, dn = Qd.copy(), Qd.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                if i != j:
                    up[j, i] += eps
                    dn[j, i] -= eps
                fd[i, j] = (loss(Q=up) - loss(Q=dn)) / (2 * eps)
        paired = sens.grad_Q + sens.grad_Q.T - np.diag(np.diag(sens.grad_Q))
        assert rel_err(fd, paired) <= 1e-4

    def test_vertex_solution_has_zero_objective_gradients(self):
        # two equality rows and one strongly active inequality fix all three
        # variables at u* = (0.5, 0.5, 1.5); the second inequality is slack.
        # u* is independent of Q and q, so their gradients are exactly zero
        p = qp.QpProblem(
            3, [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [1.0, -2.0, 0.5],
            [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0],
            [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [-0.5, 3.0])
        s = solve_tight(p)
        np.testing.assert_allclose(s.primal, [0.5, 0.5, 1.5], atol=1e-9)
        assert complementarity_margin(p, s) >= 1e-3
        g = np.array([1.0, -2.0, 0.5])
        sens = qp.backward(p, s, g)

        scale = max(np.abs(sens.grad_b).max(), np.abs(sens.grad_h).max())
        assert scale >= 1.0
        assert np.abs(sens.grad_q).max() <= 1e-12 * scale
        assert np.abs(sens.grad_Q).max() <= 1e-12 * scale

        def loss(b=p.b, h=p.h):
            prob = qp.QpProblem(3, p.Q, p.q, p.A, b, p.G, h)
            return float(g @ solve_tight(prob).primal)

        eps = 1e-5
        for block, base, grad in (("b", p.b, sens.grad_b), ("h", p.h, sens.grad_h)):
            fd = np.zeros_like(base)
            for i in range(base.size):
                up, dn = base.copy(), base.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (loss(**{block: up}) - loss(**{block: dn})) / (2 * eps)
            assert rel_err(fd, grad) <= 1e-4, block

    def test_grad_q_symmetric_exactly(self, rng):
        p = random_strictly_convex_qp(rng, n=5, m_eq=1, m_in=3)
        s = solve_tight(p)
        sens = qp.backward(p, s, rng.normal(size=5))
        np.testing.assert_array_equal(sens.grad_Q, sens.grad_Q.T)

    def test_inactive_rows_have_zero_gradient(self, rng):
        p = random_strictly_convex_qp(rng, n=4, m_eq=0, m_in=4)
        s = solve_tight(p)
        sens = qp.backward(p, s, rng.normal(size=4))
        inactive = s.dual_in <= qp.DEGENERACY_THRESHOLD
        assert np.all(sens.grad_h[inactive] == 0.0)
        assert np.all(sens.grad_G[inactive] == 0.0)

    def test_degenerate_active_set_warns(self):
        # u >= 0 active with zero dual: min 1/2 u^2 s.t. -u <= 0
        p = qp.QpProblem(1, [[1.0]], [0.0], None, None, [[-1.0]], [0.0])
        s = qp.solve(p, tolerance=1e-10, max_iter=100)
        assert s.status == qp.QpStatus.OPTIMAL
        with pytest.warns(qp.DegenerateActiveSetWarning):
            qp.backward(p, s, [1.0])

    def test_requires_optimal_status(self):
        p = qp.QpProblem(1, [[1.0]], [0.0], None, None,
                         [[1.0], [-1.0]], [-1.0, -1.0])
        s = qp.solve(p)
        with pytest.raises(qp.QpError):
            qp.backward(p, s, [1.0])


class TestBackwardThroughMap:
    def test_identity_map_returns_grad_b(self, rng):
        import scipy.sparse as sp
        p = random_strictly_convex_qp(rng, n=4, m_eq=2, m_in=3)
        s = solve_tight(p)
        sens = qp.backward(p, s, rng.normal(size=4))
        cmap = qp.CoefficientMap(
            blocks=np.array(["b", "b"]), rows=np.array([0, 1]),
            cols=np.array([-1, -1]), jacobian=sp.identity(2, format="csr"))
        np.testing.assert_allclose(qp.backward_through_map(sens, cmap), sens.grad_b)

    def test_reciprocal_chain_rule(self):
        # coefficient a = 1/C: dL/dC = -g / C^2 for slot gradient g; the A
        # slot's gradient -(y v_u + v_y u) is g at y = 0, v_u = u = 1, v_y = -g
        import scipy.sparse as sp
        c_val = 2.5
        g = 0.7
        sens = qp.SolutionSensitivity(
            u=np.ones(1), y=np.zeros(1), mu=np.zeros(0),
            v_u=np.ones(1), v_y=np.array([-g]), v_mu=np.zeros(0))
        assert sens.at("A", np.array([0]), np.array([0])) == [g]
        cmap = qp.CoefficientMap(
            blocks=np.array(["A"]), rows=np.array([0]), cols=np.array([0]),
            jacobian=sp.csr_matrix(np.array([[-1.0 / c_val ** 2]])))
        out = qp.backward_through_map(sens, cmap)
        np.testing.assert_allclose(out, [-g / c_val ** 2])

    def test_unknown_block_code_rejected(self, rng):
        import scipy.sparse as sp
        p = random_strictly_convex_qp(rng, n=3, m_eq=1, m_in=2)
        sens = qp.backward(p, solve_tight(p), rng.normal(size=3))
        with pytest.raises(qp.QpError, match="unknown block code 'X'"):
            sens.at("X", np.array([0]), np.array([0]))
        cmap = qp.CoefficientMap(
            blocks=np.array(["b", "X"]), rows=np.array([0, 0]),
            cols=np.array([-1, 0]), jacobian=sp.identity(2, format="csr"))
        with pytest.raises(qp.QpError, match="unknown block code 'X'"):
            qp.backward_through_map(sens, cmap)


def outer_product_blocks(sens: qp.SolutionSensitivity, act: np.ndarray) -> dict:
    """Every data-block gradient as the dense outer products that
    ``backward`` once returned, from the compact active-row adjoint."""
    u, y, v_u, v_y = sens.u, sens.y, sens.v_u, sens.v_y
    n, m_eq, m_in = len(u), len(y), len(sens.mu)
    mu, v_mu = sens.mu[act], sens.v_mu[act]
    grad_G = np.zeros((m_in, n))
    grad_h = np.zeros(m_in)
    if len(act):
        grad_G[act] = -(np.outer(mu, v_u) + np.outer(v_mu, u))
        grad_h[act] = v_mu
    return {
        "Q": -0.5 * (np.outer(v_u, u) + np.outer(u, v_u)),
        "q": -v_u,
        "A": -(np.outer(y, v_u) + np.outer(v_y, u)) if m_eq else np.zeros((0, n)),
        "b": v_y.copy(),
        "G": grad_G,
        "h": grad_h,
    }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSlotGradients:
    """``SolutionSensitivity.at`` and the ``grad_*`` blocks it builds equal
    the dense outer-product formulas bit for bit."""

    @staticmethod
    def problem(rng, case):
        if case == "no-active-row":
            p = random_strictly_convex_qp(rng, n=5, m_eq=2, m_in=4)
            return qp.QpProblem(5, p.Q, p.q, p.A, p.b, p.G, p.h + 1e3)
        n, m_eq, m_in = {"mixed": (6, 2, 8), "no-equalities": (6, 0, 8),
                         "no-inequalities": (5, 3, 0)}[case]
        return random_strictly_convex_qp(rng, n=n, m_eq=m_eq, m_in=m_in)

    @pytest.mark.parametrize("case", ["mixed", "no-equalities",
                                      "no-inequalities", "no-active-row"])
    def test_blocks_equal_outer_products(self, rng, case):
        p = self.problem(rng, case)
        s = solve_tight(p)
        sens = qp.backward(p, s, rng.normal(size=p.num_vars))
        threshold = max(qp.DEGENERACY_THRESHOLD, 3.0 * np.sqrt(s.kkt_residual))
        act = np.flatnonzero(s.dual_in > threshold)
        if case in ("mixed", "no-equalities"):
            assert 0 < len(act) < p.num_in
        else:
            assert len(act) == 0

        inactive = np.setdiff1d(np.arange(p.num_in), act)
        assert np.all(sens.mu[inactive] == 0.0) and np.all(sens.v_mu[inactive] == 0.0)
        assert same_bits(sens.mu[act], s.dual_in[act])

        want = outer_product_blocks(sens, act)
        n, m_eq, m_in = p.num_vars, p.num_eq, p.num_in
        shapes = {"Q": (n, n), "q": (n,), "A": (m_eq, n), "b": (m_eq,),
                  "G": (m_in, n), "h": (m_in,)}
        for block, shape in shapes.items():
            got = getattr(sens, f"grad_{block}")
            assert got.shape == shape, block
            assert same_bits(got, want[block]), block
            if not want[block].size:
                continue
            # scattered slots, repeats included, as a coefficient map names them
            rows = rng.integers(0, shape[0], size=17)
            cols = rng.integers(0, n, size=17)
            if len(shape) == 1:
                assert same_bits(sens.at(block, rows, -np.ones_like(rows)),
                                 want[block][rows]), block
            else:
                assert same_bits(sens.at(block, rows, cols),
                                 want[block][rows, cols]), block

    def test_map_gathers_the_slot_rule(self, rng):
        import scipy.sparse as sp
        p = self.problem(rng, "mixed")
        sens = qp.backward(p, solve_tight(p), rng.normal(size=p.num_vars))
        blocks = np.array(["Q", "q", "A", "b", "G", "h"] * 3)
        rows = np.array([rng.integers(0, m) for m in
                         (p.num_vars, p.num_vars, p.num_eq, p.num_eq,
                          p.num_in, p.num_in)] * 3)
        cols = rng.integers(0, p.num_vars, size=len(blocks))
        jac = sp.csr_matrix(rng.normal(size=(len(blocks), 4)))
        cmap = qp.CoefficientMap(blocks, rows, cols, jac)
        g = np.array([getattr(sens, f"grad_{b}")[r, c] if b in ("Q", "A", "G")
                      else getattr(sens, f"grad_{b}")[r]
                      for b, r, c in zip(blocks, rows, cols)])
        assert same_bits(qp.backward_through_map(sens, cmap), jac.T @ g)


class TestValidate:
    @pytest.mark.parametrize("block", ["Q", "A", "G", "q", "b", "h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, rng, block, bad):
        # a non-finite matrix entry once graded INFEASIBLE or MAX_ITER
        p = random_strictly_convex_qp(rng, n=4, m_eq=2, m_in=3)
        data = getattr(p, block).copy()
        (data.data if block in "QAG" else data)[1] = bad
        p = replace(p, **{block: data})
        with pytest.raises(qp.QpError, match="problem data contains non-finite values"):
            p.validate()
        with pytest.raises(qp.QpError, match="problem data contains non-finite values"):
            qp.solve(p)

    def test_asymmetric_q_rejected(self):
        p = qp.QpProblem(2, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(qp.QpError, match="not symmetric"):
            p.validate()

    def test_indefinite_q_rejected(self):
        # diagonal, with a negative entry
        p = qp.QpProblem(2, [[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(qp.QpError, match="negative diagonal entry"):
            p.validate()

    def test_nondiagonal_indefinite_q_rejected(self):
        # symmetric with a positive diagonal, eigenvalues 3 and -1
        p = qp.QpProblem(2, [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])
        with pytest.raises(qp.QpError, match="not positive semidefinite"):
            p.validate()

    @pytest.mark.parametrize("n", [3, 300])
    def test_stored_offdiagonal_zeros_count_as_diagonal(self, n):
        # each row stores a zero beside its diagonal entry; above the dense
        # PSD limit only the diagonal check can catch the negative entry
        import scipy.sparse as sp
        rows = np.repeat(np.arange(n), 2)
        cols = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1).ravel()
        Q = sp.csr_matrix((np.tile([1.0, 0.0], n), (rows, cols)), shape=(n, n))
        assert Q.nnz == 2 * n
        qp.QpProblem(n, Q, np.zeros(n)).validate()
        Q.data[Q.indices == rows] = np.where(np.arange(n) == n - 1, -1.0, 1.0)
        p = qp.QpProblem(n, Q, np.zeros(n))
        assert p.Q.nnz == 2 * n
        with pytest.raises(qp.QpError, match="negative diagonal entry"):
            p.validate()

    def test_cancelling_duplicate_entries_count_as_diagonal(self):
        # CSR data may store an off-diagonal entry twice; entries that cancel
        # leave Q diagonal, so the negative entry is caught above the limit
        import scipy.sparse as sp
        n = 300
        nxt = (np.arange(n) + 1) % n
        indices = np.stack([np.arange(n), nxt, nxt], axis=1).ravel()
        data = np.tile([1.0, 0.5, -0.5], n)
        data[-3] = -1.0
        Q = sp.csr_matrix((data, indices, np.arange(0, 3 * n + 1, 3)), shape=(n, n))
        p = qp.QpProblem(n, Q, np.zeros(n))
        assert not p.Q.has_canonical_format
        with pytest.raises(qp.QpError, match="negative diagonal entry"):
            p.validate()
