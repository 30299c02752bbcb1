"""Learnable multi-zone RC thermal model.

The one-hour step, evaluated exactly as written (self-persistence is
carried by the diagonal of the coupling matrix):

    tau' = alpha @ tau + (eta_h*p_h - eta_c*p_c)/c + (tau_amb - tau)/(r*c)

Parameters are stored in natural units; the flat vector used by the
optimizers keeps alpha entries raw and eta/r/c in log-space so positivity
survives arbitrary gradient steps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class RcError(Exception):
    pass


@dataclass(frozen=True)
class ZoneTopology:
    """Zone count and floor membership.

    Floors partition a subset of the zones; every conditioned zone belongs
    to exactly one floor.
    """

    num_zones: int
    floors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for floor in self.floors:
            for z in floor:
                if z < 0 or z >= self.num_zones:
                    raise RcError(f"zone index {z} out of range")
                if z in seen:
                    raise RcError(f"zone {z} appears in more than one floor")
                seen.add(z)

    @property
    def num_floors(self) -> int:
        return len(self.floors)


def default_topology(num_zones: int, zones_per_floor: int = 5) -> ZoneTopology:
    """Consecutive chunks of ``zones_per_floor`` zones per floor; the case
    study is 15 zones on 3 floors of 5."""
    floors = tuple(
        tuple(range(start, min(start + zones_per_floor, num_zones)))
        for start in range(0, num_zones, zones_per_floor)
    )
    return ZoneTopology(num_zones, floors)


@dataclass(frozen=True)
class ThetaParams:
    """RC parameters: inter-zonal coupling (alpha, 1/h), heating and cooling
    efficiencies (dimensionless), lumped resistance (degC/kW) and capacitance
    (kWh/degC).  eta/r/c must be strictly positive; alpha is unrestricted.
    """

    alpha: np.ndarray
    eta_h: np.ndarray
    eta_c: np.ndarray
    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        z = len(self.eta_h)
        for name in ("alpha", "eta_h", "eta_c", "r", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.alpha.shape != (z, z):
            raise RcError(f"alpha must be {z}x{z}")
        for name in ("eta_h", "eta_c", "r", "c"):
            v = getattr(self, name)
            if v.shape != (z,):
                raise RcError(f"{name} must have length {z}")
            if not np.all(v > 0):
                raise RcError(f"{name} must be strictly positive")
            if not np.all(np.isfinite(v)):
                raise RcError(f"{name} must be finite")
        if not np.all(np.isfinite(self.alpha)):
            raise RcError("alpha must be finite")

    @property
    def num_zones(self) -> int:
        return len(self.eta_h)


def default_theta(num_zones: int, seed: int = 0) -> ThetaParams:
    """Initializer used before any pre-training: near-identity persistence
    plus small coupling noise, and coarse physical priors for eta/r/c."""
    rng = np.random.default_rng(seed)
    alpha = np.eye(num_zones) + rng.uniform(-0.01, 0.01, size=(num_zones, num_zones))
    return ThetaParams(
        alpha=alpha,
        eta_h=np.full(num_zones, 0.9),
        eta_c=np.full(num_zones, 0.9),
        r=np.full(num_zones, 5.0),
        c=np.full(num_zones, 3.0),
    )


# ---------------------------------------------------------------------------
# dynamics


def rc_step(theta: ThetaParams, tau_in: np.ndarray, tau_amb: float,
            p_h: np.ndarray, p_c: np.ndarray) -> np.ndarray:
    """One-hour temperature update (state and powers may also be batched
    with a leading sample axis; tau_amb broadcasts)."""
    tau_in = np.asarray(tau_in, dtype=float)
    p_h = np.asarray(p_h, dtype=float)
    p_c = np.asarray(p_c, dtype=float)
    coupling = tau_in @ theta.alpha.T
    injection = (theta.eta_h * p_h - theta.eta_c * p_c) / theta.c
    ambient = (np.expand_dims(np.asarray(tau_amb, dtype=float), -1) - tau_in) / (theta.r * theta.c)
    return coupling + injection + ambient


def rollout(theta: ThetaParams, tau_0: np.ndarray, tau_amb: np.ndarray,
            p_h: np.ndarray, p_c: np.ndarray) -> np.ndarray:
    """Sequential rc_step application; returns T+1 states including tau_0."""
    tau_amb = np.asarray(tau_amb, dtype=float).ravel()
    p_h = np.atleast_2d(np.asarray(p_h, dtype=float))
    p_c = np.atleast_2d(np.asarray(p_c, dtype=float))
    steps = len(tau_amb)
    if p_h.shape[0] != steps or p_c.shape[0] != steps:
        raise RcError("power series length must match ambient series")
    out = np.empty((steps + 1, theta.num_zones))
    out[0] = np.asarray(tau_0, dtype=float)
    for t in range(steps):
        out[t + 1] = rc_step(theta, out[t], tau_amb[t], p_h[t], p_c[t])
    return out


# ---------------------------------------------------------------------------
# flat parameter vector (alpha raw, eta/r/c in log-space)


def pack(theta: ThetaParams) -> np.ndarray:
    """Flatten to [alpha (row-major), log eta_h, log eta_c, log r, log c]."""
    return np.concatenate([
        theta.alpha.ravel(),
        np.log(theta.eta_h),
        np.log(theta.eta_c),
        np.log(theta.r),
        np.log(theta.c),
    ])


def unpack(flat: np.ndarray, num_zones: int) -> ThetaParams:
    """Inverse of ``pack``."""
    flat = np.asarray(flat, dtype=float)
    z = num_zones
    n_alpha = z * z
    if flat.shape != (n_alpha + 4 * z,):
        raise RcError(f"flat vector must have length {n_alpha + 4 * z}, got {flat.shape}")
    alpha = flat[:n_alpha].reshape(z, z).copy()
    rest = flat[n_alpha:]
    return ThetaParams(
        alpha=alpha,
        eta_h=np.exp(rest[:z]),
        eta_c=np.exp(rest[z:2 * z]),
        r=np.exp(rest[2 * z:3 * z]),
        c=np.exp(rest[3 * z:]),
    )


# ---------------------------------------------------------------------------
# step coefficients and their Jacobian


@dataclass(frozen=True)
class StepCoefficients:
    """Dense coefficients of the affine one-step map

        tau' = m_tau @ tau + m_ph * p_h + m_pc * p_c + m_amb * tau_amb
    """

    m_tau: np.ndarray  # (Z, Z)
    m_ph: np.ndarray  # (Z,)
    m_pc: np.ndarray  # (Z,)
    m_amb: np.ndarray  # (Z,)


def step_coefficients(theta: ThetaParams) -> StepCoefficients:
    leak = 1.0 / (theta.r * theta.c)
    return StepCoefficients(
        m_tau=theta.alpha - np.diag(leak),
        m_ph=theta.eta_h / theta.c,
        m_pc=-theta.eta_c / theta.c,
        m_amb=leak.copy(),
    )


def coefficient_jacobian(theta: ThetaParams) -> sp.csr_matrix:
    """Jacobian of the step coefficients with respect to the flat parameter
    vector.

    Row layout: m_tau row-major (Z*Z rows), then m_ph, m_pc, m_amb (Z rows
    each).  Columns follow the ``pack`` layout; the eta/r/c columns are
    derivatives with respect to the log-space entries.
    """
    z = theta.num_zones
    n_alpha = z * z
    a_idx = np.arange(n_alpha)  # flat alpha entry k moves m_tau entry k (both row-major)
    i = np.arange(z)
    col_eta_h, col_eta_c, col_r, col_c = n_alpha + i + z * np.arange(4)[:, None]
    row_ph, row_pc, row_amb = z * z + i + z * np.arange(3)[:, None]
    diag = i * (z + 1)
    # every coefficient is a monomial in eta/r/c, so its derivative with
    # respect to a log-space entry is plus or minus the coefficient itself
    sc = step_coefficients(theta)
    rows, cols, vals = (np.concatenate(part) for part in zip(
        (a_idx, a_idx, np.ones(n_alpha)),  # d m_tau / d alpha = 1
        (diag, col_r, sc.m_amb),  # d(-1/(rc))/dlog r = +1/(rc)
        (diag, col_c, sc.m_amb),
        (row_ph, col_eta_h, sc.m_ph),
        (row_ph, col_c, -sc.m_ph),
        (row_pc, col_eta_c, sc.m_pc),
        (row_pc, col_c, -sc.m_pc),
        (row_amb, col_r, -sc.m_amb),
        (row_amb, col_c, -sc.m_amb),
    ))
    return sp.csr_matrix((vals, (rows, cols)), shape=(z * z + 3 * z, n_alpha + 4 * z))


# ---------------------------------------------------------------------------
# checkpoint files


def save_checkpoint(theta: ThetaParams, path: str | Path) -> None:
    """JSON key-value checkpoint; floats round-trip bit-exactly through
    Python's repr-based JSON encoding.  The ``rc-theta-v1`` format keeps its
    mask key, always null (every alpha entry is learnable), and its
    ``log_space`` key, always false (eta, r and c are stored as they are)."""
    doc = {
        "format": "rc-theta-v1",
        "num_zones": theta.num_zones,
        "log_space": False,
        "alpha": theta.alpha.tolist(),
        "eta_h": theta.eta_h.tolist(),
        "eta_c": theta.eta_c.tolist(),
        "r": theta.r.tolist(),
        "c": theta.c.tolist(),
        "alpha_mask": None,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_checkpoint(path: str | Path) -> ThetaParams:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "rc-theta-v1":
        raise RcError(f"{path}: not an RC parameter checkpoint")
    if doc.get("alpha_mask") is not None:
        raise RcError(f"{path}: alpha masks are not supported; "
                      "every alpha entry is learnable")
    if doc.get("log_space"):
        raise RcError(f"{path}: log-space parameters are not supported; "
                      "eta, r and c are stored as they are")
    fields = {k: np.asarray(doc[k], dtype=float) for k in ("alpha", "eta_h", "eta_c", "r", "c")}
    return ThetaParams(**fields)
