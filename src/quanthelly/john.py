"""John-position normalization, contact-point decompositions, critical
subfamilies, and the inscribed ball of an ellipsoid.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

from .errors import (CertificateFailed, DecompositionInfeasible,
                     NotInJohnPosition, SupportOutOfRange)
from .geometry import (ACTIVE_SLACK_TOL, AffineMap, Ellipsoid, HPolytope,
                       intersect_all, min_semiaxis, transform_polytope)
from .solvers import (DEFAULT_SETTINGS, SolverSettings, mvie, mvie_batch,
                      single_outcome)

_RESIDUAL_TOL = 1e-6
_ZERO_WEIGHT_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class JohnDecomposition:
    """Certificate that sum(w_i u_i) = 0 and sum(w_i u_i u_i^T) = I."""

    contact_points: np.ndarray       # (m, d), unit rows
    weights: np.ndarray              # (m,), positive
    residual_balance: float
    residual_identity: float
    support_size: int
    support_indices: tuple           # indices into the input contact sequence

    @property
    def weight_sum(self) -> float:
        return float(np.sum(self.weights))


@dataclasses.dataclass(frozen=True)
class CriticalCertificate:
    selected_indices: tuple
    decomposition: JohnDecomposition
    volume_gap: float


def normalize_to_john_position(
        P: HPolytope,
        settings: SolverSettings = DEFAULT_SETTINGS):
    """Affine map T sending the MVIE of P to the unit ball, plus T(P)."""
    T, Q, _ = _normalize_with_outcome(P, settings)
    return T, Q


def _normalize_with_outcome(P: HPolytope, settings: SolverSettings):
    out = mvie(P, settings)
    E = out.ellipsoid
    Binv = np.linalg.inv(E.shape)
    T = AffineMap(Binv, -Binv @ E.center)
    return T, transform_polytope(T, P), out


def contact_points(P_normalized: HPolytope,
                   active_tol: float = ACTIVE_SLACK_TOL):
    """Touching points of the unit ball with the active constraints.

    For the unit ball, the contact point with an active constraint
    {a . x <= b} is the unit normal a itself.  Returns (point, index) pairs.
    """
    d = P_normalized.dim
    slack = P_normalized.b - 1.0
    if np.any(slack < -active_tol):
        raise NotInJohnPosition(
            "unit ball is not contained in the polytope "
            f"(worst slack {float(np.min(slack)):.3e})")
    active = np.nonzero(slack <= active_tol)[0]
    if active.shape[0] < d + 1:
        raise NotInJohnPosition(
            f"only {active.shape[0]} constraints touch the unit ball; "
            f"at least {d + 1} are required")
    return [(P_normalized.A[i].copy(), int(i)) for i in active]


def john_decomposition(contacts: Sequence[np.ndarray]) -> JohnDecomposition:
    """Nonnegative weights solving the balance and identity equations.

    Solves the nonnegative least-squares system sum(w u) = 0 (d rows) and
    sum(w u u^T) = I (d(d+1)/2 rows, off-diagonal rows scaled by sqrt(2) so
    the residual matches the Frobenius norm), then drops zero-weight points.
    """
    U = np.atleast_2d(np.array([np.asarray(u, dtype=float).reshape(-1)
                                for u in contacts]))
    m0, d = U.shape
    if m0 < d + 1:
        raise DecompositionInfeasible(
            f"{m0} contact points cannot satisfy the identity equation in R^{d}")
    norms = np.linalg.norm(U, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise DecompositionInfeasible("contact points must be unit vectors")

    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    M = np.zeros((d + len(pairs), m0))
    rhs = np.zeros(d + len(pairs))
    M[:d, :] = U.T
    for r, (i, j) in enumerate(pairs):
        if i == j:
            M[d + r] = U[:, i] * U[:, i]
            rhs[d + r] = 1.0
        else:
            M[d + r] = np.sqrt(2.0) * U[:, i] * U[:, j]
    lam, _ = scipy.optimize.nnls(M, rhs)

    keep = np.nonzero(lam > _ZERO_WEIGHT_TOL)[0]
    weights = lam[keep]
    kept = U[keep]
    residual_balance = float(np.linalg.norm(weights @ kept))
    identity = np.einsum('i,ij,ik->jk', weights, kept, kept) - np.eye(d)
    residual_identity = float(np.linalg.norm(identity))
    if max(residual_balance, residual_identity) > _RESIDUAL_TOL:
        raise DecompositionInfeasible(
            "contact points do not admit a balanced decomposition "
            f"(balance {residual_balance:.3e}, identity {residual_identity:.3e})")
    m = keep.shape[0]
    if not (d + 1 <= m <= d * (d + 3) // 2):
        raise SupportOutOfRange(
            f"decomposition support {m} outside [{d + 1}, {d * (d + 3) // 2}]")
    return JohnDecomposition(kept, weights, residual_balance,
                             residual_identity, m, tuple(int(i) for i in keep))


def critical_subfamily(family: Sequence[HPolytope],
                       settings: SolverSettings = DEFAULT_SETTINGS
                       ) -> CriticalCertificate:
    """At most d(d+3)/2 members whose intersection shares the family's MVIE.

    Normalizes the full intersection to John position, decomposes the contact
    points, and maps each surviving contact back to the member whose rows
    hold it.  The certificate recomputes the MVIE over the selected members
    and requires the relative volume gap to stay below 1e-5.
    """
    family = list(family)
    P = intersect_all(family)
    _, Pn, out = _normalize_with_outcome(P, settings)
    contacts = contact_points(Pn)
    dec = john_decomposition([u for u, _ in contacts])
    member_of_row = np.repeat(np.arange(len(family)),
                              [C.n_constraints for C in family])
    members = sorted({int(member_of_row[contacts[i][1]])
                      for i in dec.support_indices})
    # Bounded without a check: its contact normals carry a balanced John
    # decomposition (positive weights, sum w u = 0, sum w u u^T = I), so
    # they positively span R^d.
    sub = intersect_all([family[k] for k in members])
    v_sub = single_outcome(mvie_batch([sub], settings)).volume
    v_glob = out.volume
    gap = abs(v_sub - v_glob) / v_glob
    if gap > 1e-5:
        raise CertificateFailed(
            f"selected subfamily changes the MVIE volume (relative gap {gap:.3e})")
    return CriticalCertificate(tuple(members), dec, gap)


def inscribed_ball_in_ellipsoid(E: Ellipsoid, r: float) -> Optional[Ellipsoid]:
    """The radius-r ball at E's center when it fits, i.e. every semi-axis >= r."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if min_semiaxis(E) >= r - 1e-12:
        return Ellipsoid.ball(E.center, r)
    return None
