"""Convex quadratic programs: solving and differentiating through the KKT system.

Problems have the canonical form

    min  1/2 u'Qu + q'u
    s.t. Au = b          (equality block, duals y, free sign)
         Gu <= h         (inequality block, duals mu >= 0)

``solve`` runs a Mehrotra predictor-corrector primal-dual interior-point
method (robust duals are needed downstream).  ``backward`` solves one
adjoint system on the active-set-reduced KKT Jacobian; its ``at`` gives the
loss gradient of any data entries, and ``backward_through_map`` gathers it
at a coefficient map's slots.  There is no presolve: a singleton row keeps
its variable and dual.

The KKT matrices (the Newton matrix, and the least-norm start, polish,
equality-only and adjoint systems that ``_solve_kkt`` shifts, factors and
refines) come from a ``_OneShotKkt`` that ``solve`` and ``backward`` build
per call, or from a caller's ``KktStructure``, which builds every pattern
once for many problems.  Each is quasi-definite once shifted, so it is
factored with diagonal pivots in a symmetric order: SuperLU's for each
factorization (one-shot), or one derived once per pattern (structure).
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
# Every KKT factorization: a minimum-degree order of K + K', and a diagonal
# pivot unless it is 100 times smaller than the largest entry below it.
_ORDERING = "MMD_AT_PLUS_A"
_PIVOT_THRESH = 0.01
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
        """Check that every entry is finite and that Q is symmetric PSD.

        A Q whose stored off-diagonal entries are all zero has only its
        diagonal's signs checked.  The dense eigenvalue check is O(n^3), so
        above ``_PSD_CHECK_LIMIT`` variables the solver detects indefiniteness.
        """
        if not all(np.all(np.isfinite(x)) for x in (
                self.q, self.b, self.h, self.Q.data, self.A.data, self.G.data)):
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
    the returned point (the try that ended the solve early, or the polish
    after the last iteration).  ``factorizations`` counts the SuperLU
    factorizations of the whole solve.
    """

    primal: np.ndarray
    dual_eq: np.ndarray
    dual_in: np.ndarray
    objective_value: float
    status: QpStatus
    kkt_residual: float
    iterations: int = 0
    polish_rounds: int = 0
    factorizations: int = 0


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


class _OneShotKkt:
    """The KKT matrices of one solve or backward at the problem's values,
    each built when it is needed and factored in the order SuperLU chooses
    for it (_ORDERING); ``factorizations`` counts SuperLU factorizations.
    The Newton matrix [[Q + G'diag(D)G + r I, A'], [A, -r I]]
    (r = _IPM_REG) is a static part plus a linear map of the scaling D (row
    k of G adds G[k,i] G[k,j] D[k] to (i, j)).
    """

    def __init__(self):
        self.factorizations = 0

    def _splu(self, K: sp.csc_matrix, permc_spec: str = _ORDERING) -> spla.SuperLU:
        """SuperLU factors of K; every factorization in this module comes
        from here, preferring diagonal pivots (_PIVOT_THRESH).  Of the
        (panel_size, relax) pairs swept, (1, 1) factored the scheduling QPs'
        KKT matrices fastest, or within noise of it."""
        self.factorizations += 1
        return spla.splu(K, permc_spec=permc_spec, diag_pivot_thresh=_PIVOT_THRESH,
                         options=dict(SymmetricMode=True), panel_size=1, relax=1)

    def start(self, p: QpProblem) -> tuple:
        """The least-norm start's [[I, A'], [A, 0]] at p's values, as
        ``_solve_kkt``'s system."""
        return self._system(_kkt_matrix(sp.identity(p.num_vars, format="csr"), p.A, p.G), p)

    def bordered(self, p: QpProblem):
        """rows -> [[Q, A', G_S'], [A, 0, 0], [G_S, 0, 0]] at p's values for
        the inequality rows S = ``rows`` (increasing), as ``_solve_kkt``'s
        system."""
        return lambda rows: self._system(_kkt_matrix(p.Q, p.A, p.G, rows), p)

    def _system(self, built: tuple, p: QpProblem) -> tuple:
        K, diag = built[:2]
        return K, diag, np.arange(K.shape[0]), p.num_vars, lambda M: self._splu(M).solve

    def newton(self, p: QpProblem) -> "_OneShotKkt":
        """Set the Newton matrix to p's values; returns self."""
        self._newton_parts(p.Q, p.A, p.G)
        return self

    def _newton_parts(self, Q: sp.csr_matrix, A: sp.csr_matrix, G: sp.csr_matrix) -> np.ndarray:
        """Build the Newton matrix's pattern, static part and scaling map, in
        natural order; returns the data indices of its diagonal."""
        # every (a, b) pair of stored entries within one row of G, row-major
        counts = np.diff(G.indptr)
        pairs = counts ** 2
        g_row = np.repeat(np.arange(G.shape[0]), pairs)
        k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        ea = G.indptr[g_row] + k // counts[g_row]
        eb = G.indptr[g_row] + k % counts[g_row]
        self._K, diag, pair, self._fill = _kkt_matrix(Q, A, G, extra=(G.indices[ea], G.indices[eb]))
        nnz = self._K.nnz
        self._reg = np.zeros(nnz)
        self._reg[diag] = np.where(np.arange(len(diag)) < Q.shape[0], _IPM_REG, -_IPM_REG)
        self._static = self._K.data + self._reg
        # the scaling map: row j gives the D-linear part of stored entry j
        by_entry = np.argsort(pair, kind="stable")
        self._ea, self._eb = ea[by_entry], eb[by_entry]
        self._scaling = sp.csr_matrix((G.data[self._ea] * G.data[self._eb], g_row[by_entry],
                                       _indptr(np.bincount(pair, minlength=nnz))),
                                      shape=(nnz, G.shape[0]))
        self._order = None
        return diag

    def newton_matrix(self, D: np.ndarray) -> sp.csc_matrix:
        """The Newton matrix at scaling D as stored, P K P' on a structure
        (the same object, values refreshed)."""
        self._K.data[:] = self._static + self._scaling @ D
        return self._K

    def newton_factor(self, D: np.ndarray):
        """The solution map r -> K(D)^-1 r of the Newton matrix at scaling D."""
        K = self.newton_matrix(D)
        if self._order is None:
            return self._splu(K).solve
        return _in_order(self._splu(K, "NATURAL"), self._order)


class KktStructure(_OneShotKkt):
    """The KKT matrices of every problem whose Q, A and G store their entries
    where the ones given here do.  Each pattern is built once, with a map from
    Q, A and G's data to its own, and stored as P K P' in a symmetric order
    derived here from the pattern: the start's, the Newton matrix's and one
    bordered [[Q, A', G'], [A, 0, 0], [G, 0, 0]].  The polish and adjoint
    matrices are rows and columns of the stored bordered one, so they take
    its order restricted to their rows, still symmetric.  Every solve
    factors with NATURAL: no solve or backward orders anything, and no
    solve's bits depend on the solves before it.
    """

    def __init__(self, Q: sp.csr_matrix, A: sp.csr_matrix, G: sp.csr_matrix):
        super().__init__()
        self._patterns, self._eye = (Q, A, G), sp.identity(Q.shape[0], format="csr")
        self._start = self._stored(*_kkt_matrix(self._eye, A, G))
        self._bordered = self._stored(*_kkt_matrix(Q, A, G, np.arange(G.shape[0])))
        diag = self._newton_parts(Q, A, G)
        order = self._pattern_order(self._K, diag)
        # stored Newton entry j is entry _at[j] of _fill's data
        self._K, _, self._at = _permuted(self._K, order)
        self._static, self._order, S = self._static[self._at], order, self._scaling
        counts, s_at = _segments(S.indptr, self._at)
        self._scaling = sp.csr_matrix((S.data[s_at], S.indices[s_at], _indptr(counts)),
                                      shape=S.shape)
        self._reg, self._ea, self._eb = self._reg[self._at], self._ea[s_at], self._eb[s_at]

    def _stored(self, K: sp.csc_matrix, diag: np.ndarray, _, fill) -> tuple:
        """``_permuted``'s P K P', diagonal and data map for K's pattern
        order, then the order and K's ``fill``."""
        order = self._pattern_order(K, diag)
        return (*_permuted(K, order), order, fill)

    def check(self, p: QpProblem) -> None:
        for M, P in zip(self._patterns, (p.Q, p.A, p.G)):
            if M.shape != P.shape or not (np.array_equal(M.indptr, P.indptr)
                                          and np.array_equal(M.indices, P.indices)):
                raise QpError("problem's sparsity pattern differs from the KKT structure's")

    def _pattern_order(self, K: sp.csc_matrix, diag: np.ndarray) -> np.ndarray:
        """K's _ORDERING order with SuperLU's postorder, argsort(perm_c): K Pc's
        column j is K's order[j].  SuperLU orders from the pattern alone, so
        a unit diagonal gives what any values would."""
        unit = sp.csc_matrix((np.zeros(K.nnz), K.indices, K.indptr), shape=K.shape)
        unit.data[diag] = 1.0
        return np.argsort(self._splu(unit).perm_c)

    def _natural(self, K: sp.csc_matrix):
        return self._splu(K, "NATURAL").solve

    def start(self, p: QpProblem) -> tuple:
        K, diag, at, order, fill = self._start
        K.data[:] = fill(self._eye, p.A, p.G)[at]
        return K, diag, order, p.num_vars, self._natural

    def bordered(self, p: QpProblem):
        B, _, at, order, fill = self._bordered
        data, m = fill(p.Q, p.A, p.G)[at], p.num_vars + p.num_eq

        def system(rows):
            # bordered index i becomes local[i] of the system, -1 if dropped;
            # the kept stored positions, in stored order, are the system's
            local = np.full(len(order), -1)
            local[:m], local[m + rows] = np.arange(m), np.arange(m, m + len(rows))
            local = local[order]
            keep = np.flatnonzero(local >= 0)
            return (*_principal(B, data, keep), local[keep], p.num_vars, self._natural)
        return system

    def newton(self, p: QpProblem) -> "KktStructure":
        self._static = self._fill(p.Q, p.A, p.G)[self._at] + self._reg
        self._scaling.data = p.G.data[self._ea] * p.G.data[self._eb]
        return self


def _in_order(lu: spla.SuperLU, order: np.ndarray):
    """The solution map of K from the factors ``lu`` of K stored in
    ``order``, as P K P' whose row and column j are K's order[j]."""
    def solve(rhs):
        x = np.empty_like(rhs)
        x[order] = lu.solve(rhs[order])
        return x
    return solve


def solve(problem: QpProblem, tolerance: float = 1e-8, max_iter: int = 50,
          structure: KktStructure | None = None) -> QpSolution:
    """Solve the QP with a Mehrotra predictor-corrector interior-point method.

    When the returned status is OPTIMAL the solution's ``kkt_residual`` is at
    most ``tolerance``.  Inconsistent equalities are certified INFEASIBLE by
    the least-norm start, and problems without inequalities UNBOUNDED by
    their KKT solve; otherwise both are detected from iterate divergence.

    Once the KKT residual is below _POLISH_FROM, the active-set polish is
    tried from the iterate, and again after each further fall by
    _POLISH_RETRY; the first polished point that passes OPTIMAL's test ends
    the solve, or else the best iterate is polished.  The KKT matrices come
    from ``structure`` (a KktStructure) if one is given.
    """
    if tolerance <= 0:
        raise QpError("tolerance must be positive")
    problem.validate()
    structure = _structure_for(problem, structure)
    before = structure.factorizations
    u, y, mu, status, iters, rounds = _ipm(problem, tolerance, max_iter, structure)
    sol = QpSolution(u, y, mu, problem.objective(u), status, 0.0, iters, rounds,
                     structure.factorizations - before)
    res = kkt_residual(problem, sol)
    if status == QpStatus.OPTIMAL and res > tolerance * 10:
        status = QpStatus.MAX_ITER
    return replace(sol, status=status, kkt_residual=res)


def _ipm(problem: QpProblem, tolerance: float, max_iter: int, structure: _OneShotKkt):
    """``solve``'s point, status, iterations and polish rounds."""
    n, m_eq, m_in = problem.num_vars, problem.num_eq, problem.num_in
    try:
        u = _least_norm_start(problem, tolerance, structure)
    except SingularKktError:  # inconsistent equalities
        return np.zeros(n), np.zeros(m_eq), np.zeros(m_in), QpStatus.INFEASIBLE, 0, 0
    if n == 0:  # nothing to optimize: solve grades the empty point against h
        return u, np.zeros(m_eq), np.zeros(m_in), QpStatus.OPTIMAL, 0, 0
    if m_in == 0:
        u, y, status, iters = _solve_equality_qp(problem, tolerance, structure)
        return u, y, np.zeros(0), status, iters, 0

    Q, q, A, b, G, h = problem.Q, problem.q, problem.A, problem.b, problem.G, problem.h
    AT, GT = A.T, G.T
    kkt = structure.newton(problem)

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
            pu, py, pz, p_res, rounds = _polish(problem, u, y, z, res, structure)
            if p_res <= tolerance:
                return pu, py, pz, QpStatus.OPTIMAL, it, rounds
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
            newton_solve = kkt.newton_factor(D)
        except RuntimeError:
            break  # leaves MAX_ITER with the current iterate

        def newton(r_sz):
            rhs_u = -(r_d + GT @ (D * r_g - r_sz / s_safe))
            sol = newton_solve(np.concatenate([rhs_u, -r_p]))
            du, dy = sol[:n], sol[n:]
            Gdu = G @ du
            dz = D * (Gdu + r_g) - r_sz / s_safe
            ds = -r_g - Gdu
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
        u, y, z, best_res, rounds = _polish(problem, u, y, z, best_res, structure)
        if best_res <= tolerance:
            status = QpStatus.OPTIMAL
    mu = z if status != QpStatus.INFEASIBLE else np.zeros(m_in)
    return u, y, mu, status, it, rounds


def _structure_for(problem: QpProblem, structure: KktStructure | None) -> _OneShotKkt:
    if structure is None:
        return _OneShotKkt()
    structure.check(problem)
    return structure


def _polish(p: QpProblem, u, y, z, res, structure: _OneShotKkt):
    """Active-set cleanup of the interior-point iterate.

    Solves the equality-constrained KKT system on the constraints the
    iterate marks active, refined from the iterate (u, y, z[rows]); with
    dependent rows (a floor cap binding with all its zone caps) the
    multipliers keep the interior point's positive split.  Otherwise the set
    changes (drop negative-dual rows, add violated rows) for up to 12
    rounds, stopping when a set comes back (the rounds after would repeat).
    Returns the best candidate by KKT residual, or the iterate, and the
    number of rounds.
    """
    n, m_eq = p.num_vars, p.num_eq
    slack = p.h - p.G @ u
    act = frozenset(np.flatnonzero(z > np.maximum(slack, 1e-12)).tolist())
    system = structure.bordered(p)
    best = (u, y, z, res)
    seen = set()
    for rounds in range(1, 13):
        seen.add(act)
        rows = np.array(sorted(act), dtype=int)
        rhs = np.concatenate([-p.q, p.b, p.h[rows]])
        try:
            sol = _solve_kkt(system(rows), rhs, np.concatenate([u, y, z[rows]]))
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


def _least_norm_start(p: QpProblem, tolerance: float, structure: _OneShotKkt) -> np.ndarray:
    """The least-norm solution of Au = b.  Raises SingularKktError when the
    equalities are inconsistent: the KKT solve fails, or leaves |Au - b|_inf
    above ``tolerance * max(1, |b|_inf)`` (round-off grows with |b|, to at
    most 5e-16 |b|_inf on scheduler and random small systems; a
    contradiction e between two copies of a row leaves e/2, certified here
    rather than by an interior-point run ending in MAX_ITER).
    """
    n = p.num_vars
    if p.num_eq == 0:
        return np.zeros(n)
    rhs = np.concatenate([np.zeros(n), p.b])
    u = _solve_kkt(structure.start(p), rhs)[:n]
    if np.abs(p.A @ u - p.b).max() > tolerance * max(1.0, np.abs(p.b).max()):
        raise SingularKktError("equality constraints are inconsistent")
    return u


def _solve_equality_qp(p: QpProblem, tolerance: float, structure: _OneShotKkt):
    """Direct KKT solve for problems without inequalities, whose equalities
    the least-norm start has found consistent."""
    n, m = p.num_vars, p.num_eq
    scale = max(1.0, float(np.abs(p.q).max()),
                float(np.abs(p.b).max()) if m else 0.0)
    try:
        sol = _solve_kkt(structure.bordered(p)(_NO_ENTRIES), np.concatenate([-p.q, p.b]))
    except SingularKktError:
        # consistent equalities and no KKT point: a descent ray exists
        return np.zeros(n), np.zeros(m), QpStatus.UNBOUNDED, 1
    u, y = sol[:n], sol[n:]
    res = _residual_norm(p.Q @ u + p.q + p.A.T @ y, p.A @ u - p.b,
                         np.zeros(0), np.zeros(0))
    ok = res <= max(tolerance, 1e-8) * scale
    return u, y, QpStatus.OPTIMAL if ok else QpStatus.MAX_ITER, 1


# ---------------------------------------------------------------------------
# implicit differentiation


def backward(problem: QpProblem, solution: QpSolution, grad_primal: np.ndarray,
             structure: KktStructure | None = None) -> SolutionSensitivity:
    """Vector-Jacobian products of the solution map at an optimal point.

    Solves one adjoint system on the active-set-reduced KKT Jacobian with
    right-hand side ``grad_primal`` and returns its solution with the point:
    ``at`` then satisfies, to first order, dL = <grad_X, dX> for any data
    perturbation dX.  Inequalities with dual below DEGENERACY_THRESHOLD are
    treated as inactive; if their slack is also below the threshold a
    DegenerateActiveSetWarning is issued.  The adjoint matrix comes from
    ``structure``, or from one built for this call.
    """
    if solution.status != QpStatus.OPTIMAL:
        raise QpError("backward requires an OPTIMAL solution")
    system = _structure_for(problem, structure).bordered(problem)
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
    v = _solve_kkt(system(act), np.concatenate([grad_primal, np.zeros(m_eq + len(act))]))
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
    """Row, column and data index of each stored entry in rows ``rows`` of
    the CSR matrix M, the rows numbered from 0 in the order given."""
    counts, at = _segments(M.indptr, rows)
    return np.repeat(np.arange(len(counts)), counts), M.indices[at], at


def _kkt_matrix(H, A, G, active=_NO_ENTRIES, extra=(_NO_ENTRIES, _NO_ENTRIES)):
    """[[H, C'], [C, 0]] with C = [A; G[active]] (H, A, G in CSR) as a CSC
    matrix with sorted indices, every diagonal entry stored and stored zeros
    at the ``extra`` (rows, cols); the data indices of its diagonal and of
    each extra entry; and ``fill``, which gives its data for any H, A and G
    that store their entries where these do."""
    n, m_eq = H.shape[0], A.shape[0]
    h_r, h_c, h_at = _entries(H, np.arange(n))
    a_r, a_c, a_at = _entries(A, np.arange(m_eq))
    g_r, g_c, g_at = _entries(G, active)
    c_r, c_c = np.concatenate([a_r, g_r + m_eq]), np.concatenate([a_c, g_c])
    # positions in the concatenated data of H, A and G
    c_at = np.concatenate([a_at + len(H.data), g_at + len(H.data) + len(A.data)])
    src = np.concatenate([h_at, c_at, c_at])
    size = n + m_eq + len(active)
    diag = np.arange(size)
    rows = np.concatenate([h_r, c_c, c_r + n, diag, extra[0]])
    cols = np.concatenate([h_c, c_r + n, c_c, diag, extra[1]])
    # column-major keys give CSC order with sorted row indices
    keys, slot = np.unique(cols.astype(np.int64) * size + rows, return_inverse=True)
    at = slot[:len(src)]

    def fill(H, A, G):
        # float even without entries, where bincount returns integers
        return np.bincount(at, weights=np.concatenate([H.data, A.data, G.data])[src],
                           minlength=len(keys)).astype(float)

    indptr = _indptr(np.bincount(keys // size, minlength=size))
    K = sp.csc_matrix((fill(H, A, G), keys % size, indptr), shape=(size, size))
    K.has_canonical_format = True
    return K, slot[len(src):len(src) + size], slot[len(src) + size:], fill


def _permuted(K: sp.csc_matrix, order: np.ndarray) -> tuple:
    """P K P', whose entry (i, j) is K's (order[i], order[j]), as a CSC
    matrix with sorted indices; the data indices of its diagonal; and the
    data index in K of each of its stored entries."""
    new = np.empty_like(order)
    new[order] = np.arange(len(order))
    counts, at = _segments(K.indptr, order)
    rows, cols = new[K.indices[at]], np.repeat(np.arange(len(order)), counts)
    by = np.lexsort((rows, cols))
    P = sp.csc_matrix((K.data[at[by]], rows[by], _indptr(counts)), shape=K.shape)
    P.has_canonical_format = True
    return P, np.flatnonzero(rows[by] == cols), at[by]


def _principal(B: sp.csc_matrix, data: np.ndarray, keep: np.ndarray) -> tuple:
    """The rows and columns ``keep`` (increasing) of B with data ``data``, as
    a CSC matrix, and the data indices of its diagonal."""
    new = np.full(B.shape[0], -1)
    new[keep] = np.arange(len(keep))
    counts, at = _segments(B.indptr, keep)
    rows = new[B.indices[at]]
    kept = rows >= 0
    rows, cols = rows[kept], np.repeat(np.arange(len(keep)), counts)[kept]
    K = sp.csc_matrix((data[at[kept]], rows, _indptr(np.bincount(cols, minlength=len(keep)))),
                      shape=(len(keep), len(keep)))
    K.has_canonical_format = True
    return K, np.flatnonzero(rows == cols)


def _solve_kkt(system: tuple, rhs: np.ndarray, v0: np.ndarray | None = None) -> np.ndarray:
    """Solve K v = rhs for K = [[H, C'], [C, 0]], H n x n, given as
    ``system`` = (P K P', diag, order, n, factor): row and column j of the
    stored P K P' are K's order[j], ``diag`` holds the data indices of its
    diagonal, and ``factor`` maps a matrix to its solution map.

    A signed shift (+delta on H's diagonal, -delta on the multipliers')
    keeps the factor nonsingular with dependent rows; refinement against
    the unshifted K, from ``v0`` if given, removes its bias, and barely
    moves v along the null space, so dependent rows keep v0's multipliers.
    Everything runs in the stored numbering; the result is K's.  Raises
    SingularKktError when no shift gives a consistent solve.
    """
    K, diag, order, n, factor = system
    rhs, v0 = rhs[order], None if v0 is None else v0[order]
    scale = max(1.0, float(np.abs(rhs).max()))
    shift = np.where(order < n, 1.0, -1.0)
    shifted = K.copy()
    for delta in (_ADJOINT_REG, 1e-8, 1e-6):
        shifted.data[diag] = K.data[diag] + delta * shift
        try:
            solve = factor(shifted)
        except RuntimeError:
            continue
        v = solve(rhs) if v0 is None else v0 + solve(rhs - K @ v0)
        last = np.inf
        for _ in range(5):
            if not np.all(np.isfinite(v)):
                break
            r = rhs - K @ v
            size = float(np.max(np.abs(r)))
            # tight enough that a polish refined from an early, rough
            # iterate leaves its complementarity mu * (Gu - h) at round-off;
            # a step that left over half the residual has reached round-off
            if size <= 1e-15 * scale or size >= 0.5 * last:
                break
            last = size
            v = v + solve(r)
        if np.all(np.isfinite(v)) and np.max(np.abs(K @ v - rhs)) <= 1e-6 * scale:
            out = np.empty_like(v)
            out[order] = v
            return out
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
