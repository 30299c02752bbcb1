"""Convex quadratic programs: solving and differentiating through the KKT system.

Problems have the canonical form

    min  1/2 u'Qu + q'u
    s.t. Au = b          (equality block, duals y, free sign)
         Gu <= h         (inequality block, duals mu >= 0)

``solve`` runs a Mehrotra predictor-corrector primal-dual interior-point
method; robust duals are needed downstream, which rules out active-set
methods with sloppy multiplier recovery.  ``backward`` solves one adjoint
system on the active-set-reduced KKT Jacobian for a loss gradient with
respect to the primal solution, and returns that adjoint with the point it
was taken at.  Its ``at`` gives the gradient of any data entries (Q, q, A,
b, G, h) without forming a dense block; ``backward_through_map`` gathers
it at a coefficient map's slots.  There is no presolve: the start, the
iterations, the polish and the adjoint all work on the caller's problem as
posed, so a singleton row (an initial condition) keeps its variable and dual.

Every matrix is one KKT pattern [[H, C'], [C, 0]] from ``_kkt_matrix``, a CSC
matrix with its diagonal stored: the Newton matrix (``_NewtonKkt``, values
refreshed per iteration, columns ordered once per solve), and the one-shot
systems that ``_solve_kkt`` shifts, factors and refines (the least-norm
start, which certifies inconsistent equalities, problems without
inequalities, the active-set polish, warm-started from the interior-point
iterate, and the adjoint).  Every factorization goes through ``_splu``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITER = "max_iter"


class QpError(Exception):
    pass


class SingularKktError(QpError):
    """Adjoint KKT system is singular beyond the regularization floor."""


class DegenerateActiveSetWarning(UserWarning):
    """An inequality sits at the active/inactive boundary (tiny dual and
    tiny slack); it is treated as inactive for differentiation."""


# Inequalities with dual and slack both below this are degenerate: neither
# strictly active nor strictly inactive.  Treated as inactive, with a warning.
DEGENERACY_THRESHOLD = 1e-6

# Static regularization of interior-point KKT systems (quasi-definite trick).
_IPM_REG = 1e-9
# First signed diagonal shift of the one-shot KKT solves (``_solve_kkt``).
_ADJOINT_REG = 1e-10
# Above this many variables only a diagonal Q is checked for PSD exactly.
_PSD_CHECK_LIMIT = 200
_NO_ENTRIES = np.zeros(0, dtype=int)
# The interior-point method tries the active-set polish once its KKT residual
# falls below _POLISH_FROM, and again each time it has fallen _POLISH_RETRY
# times lower than at the last try.
_POLISH_FROM = 1e-3
_POLISH_RETRY = 0.1


def _csr(m, shape) -> sp.csr_matrix:
    if m is None:
        return sp.csr_matrix(shape)
    if sp.issparse(m):
        return m.tocsr().astype(float)
    arr = np.asarray(m, dtype=float)
    return sp.csr_matrix(np.atleast_2d(arr)) if arr.size else sp.csr_matrix(shape)


def _vec(v) -> np.ndarray:
    if v is None:
        return np.zeros(0)
    return np.asarray(v, dtype=float).ravel()


@dataclass(frozen=True)
class QpProblem:
    """Immutable problem data. Matrices may be passed dense or sparse;
    A/b (or G/h) may be None for problems without that block."""

    num_vars: int
    Q: sp.csr_matrix
    q: np.ndarray
    A: sp.csr_matrix = None
    b: np.ndarray = None
    G: sp.csr_matrix = None
    h: np.ndarray = None

    def __post_init__(self):
        n = self.num_vars
        b, h = _vec(self.b), _vec(self.h)
        object.__setattr__(self, "Q", _csr(self.Q, (n, n)))
        object.__setattr__(self, "q", _vec(self.q))
        object.__setattr__(self, "A", _csr(self.A, (len(b), n)))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "G", _csr(self.G, (len(h), n)))
        object.__setattr__(self, "h", h)
        if self.Q.shape != (n, n):
            raise QpError(f"Q must be {n}x{n}, got {self.Q.shape}")
        if self.q.shape != (n,):
            raise QpError(f"q must have length {n}")
        if self.A.shape != (len(b), n):
            raise QpError("equality block dimensions inconsistent")
        if self.G.shape != (len(h), n):
            raise QpError("inequality block dimensions inconsistent")

    @property
    def num_eq(self) -> int:
        return self.A.shape[0]

    @property
    def num_in(self) -> int:
        return self.G.shape[0]

    def validate(self) -> None:
        """Check symmetry and positive semidefiniteness of Q.

        Q is diagonal when every stored off-diagonal entry is zero; then
        only its diagonal's signs are checked.  Other Q is checked for
        symmetry and, since the dense eigenvalue check is O(n^3), for PSD
        only up to ``_PSD_CHECK_LIMIT`` variables; larger ones rely on the
        solver detecting indefiniteness.
        """
        if not all(np.all(np.isfinite(x)) for x in (self.q, self.b, self.h)):
            raise QpError("problem data contains non-finite values")
        Q = self.Q if self.Q.has_canonical_format else self.Q.tocoo().tocsr()
        scale = max(np.abs(Q.data).max(), 1.0) if Q.nnz else 1.0
        rows = np.repeat(np.arange(self.num_vars), np.diff(Q.indptr))
        if not np.any(Q.data[Q.indices != rows]):
            if np.any(Q.diagonal() < -1e-10 * scale):
                raise QpError("Q has a negative diagonal entry (not PSD)")
            return
        sym_gap = Q - Q.T
        if sym_gap.nnz and abs(sym_gap).max() > 1e-12 * scale:
            raise QpError("Q is not symmetric within 1e-12 relative tolerance")
        if self.num_vars <= _PSD_CHECK_LIMIT:
            w = np.linalg.eigvalsh(Q.toarray())
            if w.min() < -1e-10 * max(abs(w).max(), 1.0):
                raise QpError("Q is not positive semidefinite")

    def objective(self, u: np.ndarray) -> float:
        return float(0.5 * u @ (self.Q @ u) + self.q @ u)


@dataclass(frozen=True)
class QpSolution:
    """A solve's point, status and final KKT residual.

    ``iterations`` counts the interior-point iterates examined, the start
    included: the solve took one Newton step fewer, unless ``max_iter``
    ended it.  ``polish_rounds`` counts the rounds of the polish that gave
    the returned point.  That is the try that ended the solve early, or
    the polish after the last iteration.  Earlier tries that did not pass
    OPTIMAL's test are not counted.
    """

    primal: np.ndarray
    dual_eq: np.ndarray
    dual_in: np.ndarray
    objective_value: float
    status: QpStatus
    kkt_residual: float
    iterations: int = 0
    polish_rounds: int = 0


@dataclass(frozen=True)
class SolutionSensitivity:
    """The adjoint (v_u, v_y, v_mu) of one loss at the point (u, y, mu).

    ``mu`` and ``v_mu`` have one entry per inequality row and are zero off
    the rows ``backward`` treated as active.  ``at`` gives the loss gradient
    with respect to any data entries; the ``grad_*`` properties evaluate it
    over a whole block, for checks and small problems.
    """

    u: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    v_u: np.ndarray
    v_y: np.ndarray
    v_mu: np.ndarray

    def at(self, block: str, rows, cols) -> np.ndarray:
        """dL/dX[rows, cols] for the data block named ``block`` (one of
        'Q', 'q', 'A', 'b', 'G', 'h'); rows and cols broadcast together, and
        cols is ignored for the vector blocks.  Inactive G rows are exactly
        zero."""
        u, y, mu, v_u, v_y, v_mu = self.u, self.y, self.mu, self.v_u, self.v_y, self.v_mu
        if block == "Q":
            return -0.5 * (v_u[rows] * u[cols] + u[rows] * v_u[cols])
        if block == "q":
            return -v_u[rows]
        if block == "A":
            return -(y[rows] * v_u[cols] + v_y[rows] * u[cols])
        if block == "b":
            return v_y[rows]
        if block == "G":
            return np.where(mu[rows] > 0, -(mu[rows] * v_u[cols] + v_mu[rows] * u[cols]), 0.0)
        if block == "h":
            return v_mu[rows]
        raise QpError(f"unknown block code {str(block)!r}")

    def _block(self, block: str, m: int) -> np.ndarray:
        rows = np.arange(m)
        if block in ("q", "b", "h"):
            return self.at(block, rows, None)
        return self.at(block, rows[:, None], np.arange(len(self.u)))

    grad_Q = property(lambda self: self._block("Q", len(self.u)))
    grad_q = property(lambda self: self._block("q", len(self.u)))
    grad_A = property(lambda self: self._block("A", len(self.y)))
    grad_b = property(lambda self: self._block("b", len(self.y)))
    grad_G = property(lambda self: self._block("G", len(self.mu)))
    grad_h = property(lambda self: self._block("h", len(self.mu)))


@dataclass(frozen=True)
class CoefficientMap:
    """Sparse Jacobian from raw parameters to QP data entries.

    Slot k names one QP coefficient: ``blocks[k]`` in {'Q','q','A','b','G',
    'h'} with ``rows``/``cols`` locating the entry (cols is -1 for vector
    blocks).  ``jacobian`` has one row per slot, one column per raw
    parameter, holding d(coefficient)/d(parameter).
    """

    blocks: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    jacobian: sp.csr_matrix

    def __post_init__(self):
        s = len(self.blocks)
        if not (len(self.rows) == len(self.cols) == s == self.jacobian.shape[0]):
            raise QpError("coefficient map slot arrays disagree in length")


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Infinity norm of the KKT residual of (primal, dual_eq, dual_in).

    Covers stationarity, equality violation, clipped inequality violation,
    dual nonnegativity violation and complementarity.
    """
    p, u, y, mu = problem, solution.primal, solution.dual_eq, solution.dual_in
    stat = p.Q @ u + p.q + p.A.T @ y + p.G.T @ mu
    return _residual_norm(stat, p.A @ u - p.b, p.G @ u - p.h, mu)


def _residual_norm(stat: np.ndarray, r_p: np.ndarray, gap: np.ndarray,
                   mu: np.ndarray) -> float:
    """Infinity norm of the KKT residual from its parts: the stationarity
    residual, the equality residual Au - b and the inequality gap Gu - h.
    Infinite when any part is not finite: ``max`` would drop a NaN."""
    parts = []
    if r_p.size:
        parts.append(float(np.abs(r_p).max()))
    if gap.size:
        parts.append(float(np.maximum(gap, 0.0).max()))
        parts.append(float(np.maximum(-mu, 0.0).max()))
        parts.append(float(np.abs(mu * gap).max()))
    if stat.size:
        parts.append(float(np.abs(stat).max()))
    if not all(map(math.isfinite, parts)):
        return float("inf")
    return max([0.0, *parts])


# ---------------------------------------------------------------------------
# interior-point solver


class _NewtonKkt:
    """The interior-point Newton matrix

        [[Q + G'diag(D)G + r I,  A'  ],
         [A,                    -r I ]]     (r = _IPM_REG)

    with its pattern built once per solve by ``_kkt_matrix``.  Every entry is
    the static part (Q, A, A' and the signed regularization) plus a linear
    map of the scaling D: row k of G adds G[k,i] G[k,j] D[k] to (i, j).  Each
    iteration refreshes only the values of one CSC matrix.

    The pattern never changes within a solve, so it is ordered once: the
    first ``factor`` orders the columns by COLAMD and stores the pattern in
    that order, and every later one factors it as stored.
    """

    def __init__(self, Q: sp.csr_matrix, A: sp.csr_matrix, G: sp.csr_matrix):
        n, m_in = Q.shape[0], G.shape[0]
        # every (a, b) pair of stored entries within one row of G, row-major
        counts = np.diff(G.indptr)
        pairs = counts ** 2
        g_row = np.repeat(np.arange(m_in), pairs)
        k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        width = counts[g_row]
        ea = G.indptr[g_row] + k // width
        eb = G.indptr[g_row] + k % width

        self._K, diag, pair = _kkt_matrix(Q, A, G, extra=(G.indices[ea], G.indices[eb]))
        self._static = self._K.data.copy()
        self._static[diag] += np.where(np.arange(len(diag)) < n, _IPM_REG, -_IPM_REG)
        self._scaling = sp.csr_matrix((G.data[ea] * G.data[eb], (pair, g_row)),
                                      shape=(self._K.nnz, m_in))
        self._order = None  # column j of the stored matrix is column _order[j]

    def matrix(self, D: np.ndarray) -> sp.csc_matrix:
        """The Newton matrix at scaling D with its columns in the stored
        order (the same object, values refreshed)."""
        self._K.data[:] = self._static + self._scaling @ D
        return self._K

    def factor(self, D: np.ndarray):
        """The solution map r -> K(D)^-1 r of the Newton matrix at scaling D."""
        K = self.matrix(D)
        if self._order is None:
            lu = _splu(K)
            # SuperLU factors K Pc with Pc[i, perm_c[i]] = 1: column j of
            # K Pc is column argsort(perm_c)[j] of K
            self._store_in_order(np.argsort(lu.perm_c))
            return lu.solve
        lu, order = _splu(K, "NATURAL"), self._order

        def solve(rhs):
            x = np.empty_like(rhs)
            x[order] = lu.solve(rhs)
            return x
        return solve

    def _store_in_order(self, order: np.ndarray) -> None:
        K, S = self._K, self._scaling
        counts, at = _segments(K.indptr, order)
        self._K = sp.csc_matrix((K.data[at], K.indices[at], _indptr(counts)), shape=K.shape)
        self._K.has_canonical_format = True
        self._static = self._static[at]
        counts, s_at = _segments(S.indptr, at)
        self._scaling = sp.csr_matrix((S.data[s_at], S.indices[s_at], _indptr(counts)),
                                      shape=S.shape)
        self._order = order


def solve(problem: QpProblem, tolerance: float = 1e-8, max_iter: int = 50) -> QpSolution:
    """Solve the QP with a Mehrotra predictor-corrector interior-point method.

    When the returned status is OPTIMAL the solution's ``kkt_residual`` is at
    most ``tolerance``.  Every step works on ``problem`` as posed: singleton
    and empty equality rows are ordinary rows.  Inconsistent equalities are
    certified INFEASIBLE by the least-norm start, at every problem size;
    problems without inequalities are certified UNBOUNDED by their KKT solve.
    Otherwise INFEASIBLE and UNBOUNDED are detected from iterate divergence.

    Once the KKT residual is below _POLISH_FROM, the active-set polish is
    tried from the iterate, and tried again after each further fall by
    _POLISH_RETRY.  The solve returns the first polished point that passes
    OPTIMAL's test.  Otherwise it iterates to ``tolerance`` and polishes the
    best iterate.
    """
    if tolerance <= 0:
        raise QpError("tolerance must be positive")
    problem.validate()

    n, m_eq, m_in = problem.num_vars, problem.num_eq, problem.num_in
    try:
        u = _least_norm_start(problem, tolerance)
    except SingularKktError:  # inconsistent equalities
        return _finish(problem, np.zeros(n), np.zeros(m_eq), np.zeros(m_in),
                       QpStatus.INFEASIBLE, 0, tolerance)
    if n == 0:  # nothing to optimize: _finish grades the empty point against h
        return _finish(problem, u, np.zeros(m_eq), np.zeros(m_in),
                       QpStatus.OPTIMAL, 0, tolerance)
    if m_in == 0:
        u, y, status, iters = _solve_equality_qp(problem, tolerance)
        return _finish(problem, u, y, np.zeros(0), status, iters, tolerance)

    Q, q, A, b, G, h = problem.Q, problem.q, problem.A, problem.b, problem.G, problem.h
    AT, GT = A.T, G.T
    kkt = _NewtonKkt(Q, A, G)

    y = np.zeros(m_eq)
    gap = h - G @ u
    shift = max(0.0, 1.5 * float(-gap.min()))
    s = gap + shift + 1.0
    z = np.ones(m_in)

    status = QpStatus.MAX_ITER
    it = 0
    best_res = np.inf
    best = (u.copy(), y.copy(), z.copy())
    polish_below = _POLISH_FROM
    for it in range(1, max_iter + 1):
        Gu = G @ u
        r_d = Q @ u + q + AT @ y + GT @ z
        r_p = A @ u - b
        r_g = Gu + s - h
        mu_gap = float(s @ z) / m_in

        res = _residual_norm(r_d, r_p, Gu - h, z)
        if res < best_res:
            best_res = res
            best = (u.copy(), y.copy(), z.copy())
        if res <= tolerance:
            status = QpStatus.OPTIMAL
            break
        if res < polish_below:
            # near the optimum the iterate marks the active set: finish here
            # if the polished point passes OPTIMAL's test, else go on
            polish_below = _POLISH_RETRY * res
            pu, py, pz, p_res, rounds = _polish(problem, u, y, z, res)
            if p_res <= tolerance:
                return _finish(problem, pu, py, pz, QpStatus.OPTIMAL, it, tolerance, rounds)
        # central path numerically exhausted: pushing mu further only
        # degrades the dual residual through the 1/s scaling
        if mu_gap <= 1e-3 * tolerance:
            status = QpStatus.OPTIMAL if best_res <= tolerance else QpStatus.MAX_ITER
            break

        big = max(float(np.abs(u).max()), float(np.abs(z).max()),
                  float(np.abs(y).max()) if m_eq else 0.0)
        if big > 1e10 or not np.isfinite(big):
            obj = problem.objective(np.nan_to_num(u, nan=0.0, posinf=0.0, neginf=0.0))
            status = (QpStatus.UNBOUNDED
                      if float(np.abs(u).max()) > 1e8 and obj < -1e10
                      else QpStatus.INFEASIBLE)
            break

        s_safe = np.maximum(s, 1e-300)
        D = np.minimum(z / s_safe, 1e16)
        try:
            newton_solve = kkt.factor(D)
        except RuntimeError:
            break  # leaves MAX_ITER with the current iterate

        def newton(r_sz):
            rhs_u = -(r_d + GT @ (D * r_g - r_sz / s_safe))
            sol = newton_solve(np.concatenate([rhs_u, -r_p]))
            du, dy = sol[:n], sol[n:]
            dz = D * (G @ du + r_g) - r_sz / s_safe
            ds = -r_g - G @ du
            return du, dy, dz, ds

        du_a, dy_a, dz_a, ds_a = newton(s * z)
        alpha_a = _step_length(s, ds_a, z, dz_a)
        mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m_in
        sigma = (mu_aff / mu_gap) ** 3 if mu_gap > 0 else 0.0

        r_sz = s * z + ds_a * dz_a - sigma * mu_gap
        du, dy, dz, ds = newton(r_sz)
        alpha = min(1.0, 0.99 * _step_length(s, ds, z, dz))

        u = u + alpha * du
        y = y + alpha * dy
        z = np.maximum(z + alpha * dz, 1e-300)
        s = np.maximum(s + alpha * ds, 1e-300)

    rounds = 0
    if status in (QpStatus.OPTIMAL, QpStatus.MAX_ITER) and best_res < np.inf:
        u, y, z = best
        u, y, z, best_res, rounds = _polish(problem, u, y, z, best_res)
        if best_res <= tolerance:
            status = QpStatus.OPTIMAL
    mu = z if status != QpStatus.INFEASIBLE else np.zeros(m_in)
    return _finish(problem, u, y, mu, status, it, tolerance, rounds)


def _polish(p: QpProblem, u, y, z, res):
    """Active-set cleanup of the interior-point iterate.

    Solves the equality-constrained KKT system on the constraints the
    iterate marks active, refined from the iterate (u, y, z[rows]).  When
    those rows are dependent (a floor cap binding with all its zone caps),
    the multipliers keep the interior point's positive split, so one round
    usually suffices; otherwise the set changes (drop negative-dual rows,
    add violated rows) for up to 12 rounds, and stops when a set comes back:
    a round depends only on its set, so the rounds after would repeat.
    Returns the best candidate by KKT residual, or the incoming iterate, and
    the number of rounds.
    """
    n, m_eq = p.num_vars, p.num_eq
    slack = p.h - p.G @ u
    act = frozenset(np.flatnonzero(z > np.maximum(slack, 1e-12)).tolist())
    best = (u, y, z, res)
    seen = set()
    for rounds in range(1, 13):
        seen.add(act)
        rows = np.array(sorted(act), dtype=int)
        rhs = np.concatenate([-p.q, p.b, p.h[rows]])
        try:
            sol = _solve_kkt(p.Q, p.A, p.G, rhs, rows,
                             np.concatenate([u, y, z[rows]]))
        except SingularKktError:
            # dependent actives with inconsistent right-hand sides (a floor
            # cap plus every one of its zone caps): prune the weakest active
            if not rows.size:
                break
            act = act - {int(rows[np.argmin(z[rows])])}
        else:
            u2, y2, duals = sol[:n], sol[n:n + m_eq], sol[n + m_eq:]
            z2 = np.zeros(p.num_in)
            z2[rows] = np.maximum(duals, 0.0)
            res2 = kkt_residual(p, QpSolution(u2, y2, z2, 0.0, QpStatus.OPTIMAL, 0.0))
            if res2 < best[3]:
                best = (u2, y2, z2, res2)
            negative = rows[duals < -1e-10].tolist()
            violated = np.flatnonzero(p.G @ u2 - p.h > 1e-10).tolist()
            act = (act - set(negative)) | set(violated)
        if act in seen:
            break
    return (*best, rounds)


def _step_length(s, ds, z, dz) -> float:
    """The largest step in (0, 1] keeping s + alpha ds and z + alpha dz >= 0."""
    ratios = [-v[d < 0] / d[d < 0] for v, d in ((s, ds), (z, dz))]
    return float(min([1.0, *(r.min() for r in ratios if r.size)]))


def _least_norm_start(p: QpProblem, tolerance: float) -> np.ndarray:
    """The least-norm solution of Au = b.  Raises SingularKktError when the
    equalities are inconsistent: the KKT solve fails, or the start leaves
    |Au - b|_inf above ``tolerance * max(1, |b|_inf)``.  Consistent systems
    leave round-off that grows with |b| (at most 5e-16 |b|_inf on scheduler
    and random small systems), hence the relative factor, many orders below
    any tolerance; a contradiction e between two copies of a row leaves e/2,
    which no point improves on, so it is certified here instead of after the
    whole interior-point run ends in MAX_ITER.
    """
    n = p.num_vars
    if p.num_eq == 0:
        return np.zeros(n)
    rhs = np.concatenate([np.zeros(n), p.b])
    u = _solve_kkt(sp.identity(n, format="csr"), p.A, p.G, rhs)[:n]
    if np.abs(p.A @ u - p.b).max() > tolerance * max(1.0, np.abs(p.b).max()):
        raise SingularKktError("equality constraints are inconsistent")
    return u


def _solve_equality_qp(p: QpProblem, tolerance: float):
    """Direct KKT solve for problems without inequalities, whose equalities
    the least-norm start has found consistent."""
    n, m = p.num_vars, p.num_eq
    scale = max(1.0, float(np.abs(p.q).max()),
                float(np.abs(p.b).max()) if m else 0.0)
    try:
        sol = _solve_kkt(p.Q, p.A, p.G, np.concatenate([-p.q, p.b]))
    except SingularKktError:
        # consistent equalities and no KKT point: a descent ray exists
        return np.zeros(n), np.zeros(m), QpStatus.UNBOUNDED, 1
    u, y = sol[:n], sol[n:]
    res = _residual_norm(p.Q @ u + p.q + p.A.T @ y, p.A @ u - p.b,
                         np.zeros(0), np.zeros(0))
    ok = res <= max(tolerance, 1e-8) * scale
    return u, y, QpStatus.OPTIMAL if ok else QpStatus.MAX_ITER, 1


def _finish(problem: QpProblem, u, y, mu, status, iters, tolerance,
            polish_rounds=0) -> QpSolution:
    sol = QpSolution(u, y, mu, problem.objective(u), status, 0.0, iters, polish_rounds)
    res = kkt_residual(problem, sol)
    if status == QpStatus.OPTIMAL and res > tolerance * 10:
        status = QpStatus.MAX_ITER
    return replace(sol, status=status, kkt_residual=res)


# ---------------------------------------------------------------------------
# implicit differentiation


def backward(problem: QpProblem, solution: QpSolution,
             grad_primal: np.ndarray) -> SolutionSensitivity:
    """Vector-Jacobian products of the solution map at an optimal point.

    Solves one adjoint system on the active-set-reduced KKT Jacobian with
    right-hand side ``grad_primal`` and returns its solution with the point:
    ``at`` then satisfies, to first order, dL = <grad_X, dX> for any data
    perturbation dX.  Inequalities with dual below DEGENERACY_THRESHOLD are
    treated as inactive; if their slack is also below the threshold a
    DegenerateActiveSetWarning is issued.
    """
    if solution.status != QpStatus.OPTIMAL:
        raise QpError("backward requires an OPTIMAL solution")
    grad_primal = _vec(grad_primal)
    n, m_eq = problem.num_vars, problem.num_eq
    if grad_primal.shape != (n,):
        raise QpError(f"grad_primal must have length {n}")

    u, dual_in = solution.primal, solution.dual_in
    slack = problem.h - problem.G @ u
    # interior-point methods leave degenerate pairs with dual and slack both
    # near sqrt(complementarity), so the floor adapts to the solution's
    # residual scale
    threshold = max(DEGENERACY_THRESHOLD,
                    3.0 * np.sqrt(max(solution.kkt_residual, 0.0)))
    active = dual_in > threshold
    degenerate = (~active) & (slack < threshold)
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} inequality constraint(s) are degenerate "
            "(dual and slack both below threshold); treated as inactive",
            DegenerateActiveSetWarning,
            stacklevel=2,
        )
    act = np.flatnonzero(active)

    v = _solve_kkt(problem.Q, problem.A, problem.G,
                   np.concatenate([grad_primal, np.zeros(m_eq + len(act))]), act)
    mu, v_mu = np.zeros(len(dual_in)), np.zeros(len(dual_in))
    mu[act] = dual_in[act]
    v_mu[act] = v[n + m_eq:]
    return SolutionSensitivity(u, solution.dual_eq, mu, v[:n], v[n:n + m_eq], v_mu)


def _segments(indptr: np.ndarray, order) -> tuple:
    """Per-row counts and data positions of the stored entries of rows
    ``order`` of a compressed matrix (columns, for CSC), in that order."""
    counts = np.diff(indptr)[order]
    return counts, np.repeat(indptr[order] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _indptr(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def _entries(M: sp.csr_matrix, rows) -> tuple:
    """Row, column and value of each stored entry in rows ``rows`` of the
    CSR matrix M, the rows numbered from 0 in the order given."""
    counts, at = _segments(M.indptr, rows)
    return np.repeat(np.arange(len(counts)), counts), M.indices[at], M.data[at]


def _kkt_matrix(H, A, G, active=_NO_ENTRIES, extra=(_NO_ENTRIES, _NO_ENTRIES)):
    """The matrix [[H, C'], [C, 0]] with C = [A; G[active]] (H, A, G in CSR)
    as a CSC matrix with sorted indices and every diagonal entry stored, plus
    stored zeros at the ``extra`` (rows, cols).  Also returns the data
    indices of the diagonal and of each extra entry, for in-place updates.
    """
    n, m_eq = H.shape[0], A.shape[0]
    h_r, h_c, h_v = _entries(H, np.arange(n))
    a_r, a_c, a_v = _entries(A, np.arange(m_eq))
    g_r, g_c, g_v = _entries(G, active)
    c_r, c_c, c_v = (np.concatenate(p) for p in ((a_r, g_r + m_eq), (a_c, g_c), (a_v, g_v)))
    size = n + m_eq + len(active)
    diag = np.arange(size)
    rows = np.concatenate([h_r, c_c, c_r + n, diag, extra[0]])
    cols = np.concatenate([h_c, c_r + n, c_c, diag, extra[1]])
    vals = np.concatenate([h_v, c_v, c_v])
    # column-major keys give CSC order with sorted row indices
    keys, slot = np.unique(cols.astype(np.int64) * size + rows, return_inverse=True)
    # float even without entries, where bincount returns integers
    data = np.bincount(slot[:len(vals)], weights=vals, minlength=len(keys)).astype(float)
    indptr = _indptr(np.bincount(keys // size, minlength=size))
    K = sp.csc_matrix((data, keys % size, indptr), shape=(size, size))
    K.has_canonical_format = True
    return K, slot[len(vals):len(vals) + size], slot[len(vals) + size:]


def _splu(K: sp.csc_matrix, permc_spec: str = "COLAMD") -> spla.SuperLU:
    """SuperLU factors of K; every factorization in this module comes from
    here.  One column per panel and no relaxed supernodes suit these small,
    very sparse KKT matrices: of the (panel_size, relax) pairs swept, (1, 1)
    factored the scheduling QPs' Newton and one-shot matrices fastest or
    within noise of fastest, at 5 and 15 zones."""
    return spla.splu(K, permc_spec=permc_spec, panel_size=1, relax=1)


def _solve_kkt(H, A, G, rhs: np.ndarray, active=_NO_ENTRIES,
               v0: np.ndarray | None = None) -> np.ndarray:
    """Solve [[H, C'], [C, 0]] v = rhs, C = [A; G[active]].

    A signed shift (+delta on H's diagonal, -delta on the multipliers') written
    into the stored diagonal keeps the factor nonsingular with dependent rows;
    refinement against the unshifted matrix, from ``v0`` if given, removes its
    bias.  Each step adds the shifted inverse of the residual, which barely
    moves v along the null space, so dependent rows keep v0's multipliers.
    Raises SingularKktError when no shift gives a consistent solve.
    """
    K, diag, _ = _kkt_matrix(H, A, G, active)
    scale = max(1.0, float(np.abs(rhs).max()))
    shift = np.where(np.arange(K.shape[0]) < H.shape[0], 1.0, -1.0)
    shifted = K.copy()
    for delta in (_ADJOINT_REG, 1e-8, 1e-6):
        shifted.data[diag] = K.data[diag] + delta * shift
        try:
            factor = _splu(shifted)
        except RuntimeError:
            continue
        v = factor.solve(rhs) if v0 is None else v0 + factor.solve(rhs - K @ v0)
        for _ in range(5):
            if not np.all(np.isfinite(v)):
                break
            r = rhs - K @ v
            # tight enough that a polish refined from an early, rough
            # iterate leaves its complementarity mu * (Gu - h) at round-off
            if np.max(np.abs(r)) <= 1e-15 * scale:
                break
            v = v + factor.solve(r)
        if np.all(np.isfinite(v)) and np.max(np.abs(K @ v - rhs)) <= 1e-6 * scale:
            return v
    raise SingularKktError("KKT system singular beyond regularization")


def backward_through_map(sensitivity: SolutionSensitivity,
                         coefficient_jacobian: CoefficientMap) -> np.ndarray:
    """Contract the adjoint with a coefficient Jacobian.

    Returns dL/dtheta_raw = J' g where g gathers ``sensitivity.at`` at every
    slot named by the map, one gather per block code.
    """
    cm = coefficient_jacobian
    g = np.empty(len(cm.blocks))
    for code in np.unique(cm.blocks):
        at = cm.blocks == code
        g[at] = sensitivity.at(code, cm.rows[at], cm.cols[at])
    return np.asarray(cm.jacobian.T @ g).ravel()
