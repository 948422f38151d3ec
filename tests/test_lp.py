"""The one LP function, geometry._lp, against scipy's linprog, bit for bit:
status, solution, objective and row duals."""
import numpy as np
import pytest
from scipy.optimize import linprog

from quanthelly import HPolytope, geometry, helly, is_bounded
from quanthelly.errors import Unbounded
from quanthelly.geometry import chebyshev_center
from quanthelly.helly import (colorful_selections, minkowski_difference,
                              selection_intersection)
from quanthelly.instances import GeneratorSpec, generate

from conftest import PRESOLVE_QUIRK_BODY

QUIRK = HPolytope(*PRESOLVE_QUIRK_BODY)


def _free(n):
    return np.full(n, -np.inf), np.full(n, np.inf)


def _recorded(monkeypatch, run):
    """The (c, A, b, lb, ub) of every LP that run() solves."""
    lps = []
    lp = geometry._lp

    def record(*args):
        lps.append(tuple(np.array(a, dtype=float) for a in args))
        return lp(*args)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_lp", record)
        m.setattr(helly, "_lp", record)
        run()
    return lps


def _old_bounded_lps(P):
    """The LPs max +/- x_i over P that boundedness was once decided by."""
    lps = []
    for i in range(P.dim):
        for sign in (1.0, -1.0):
            c = np.zeros(P.dim)
            c[i] = -sign
            lps.append((c, P.A, P.b) + _free(P.dim))
    return lps


def _corpus(monkeypatch):
    inst = generate(GeneratorSpec("common-ball", 7, 2, 4, 2))
    sweep = [selection_intersection(inst.classes, sel)
             for sel in colorful_selections(inst.classes, 2)]
    members = [body for bodies in inst.classes.classes for body in bodies]

    def library():
        for P in sweep:
            chebyshev_center(P)
        for P in members:
            is_bounded(P)
            geometry._recession_cone_is_zero(P)
        minkowski_difference(sweep[0], members[0])

    lps = _recorded(monkeypatch, library)
    empty = HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
    half = HPolytope([[1.0, 0.0]], [1.0])
    lps.append((np.array([1.0, 0.0]), empty.A, empty.b) + _free(2))
    lps.append((np.array([-1.0, 0.0]), half.A, half.b) + _free(2))
    return lps + _old_bounded_lps(QUIRK)


def _linprog(c, A, b, lb, ub):
    res = linprog(c, A_ub=A, b_ub=b, bounds=np.column_stack([lb, ub]),
                  method="highs")
    return res.status, res.x, res.fun, res.ineqlin.marginals


def _bits(out):
    status, x, fun, row_dual = out
    return (int(status), None if x is None else x.tobytes(),
            None if fun is None else np.float64(fun).tobytes(),
            None if row_dual is None else row_dual.tobytes())


@pytest.fixture
def corpus(monkeypatch):
    return _corpus(monkeypatch)


def test_lp_matches_linprog_bitwise(corpus):
    expected = [_bits(_linprog(*lp)) for lp in corpus]
    statuses = [bits[0] for bits in expected]
    assert {0, 2, 3} <= set(statuses)
    # the duals are compared too: every optimum carries them
    assert all(bits[3] is not None for bits in expected if bits[0] == 0)
    assert statuses[-2 * QUIRK.dim] == 2  # presolve's quirk: max x_0, QUIRK
    assert [_bits(geometry._lp(*lp)) for lp in corpus] == expected
    # each HiGHS object is reused across LPs; the order must not matter
    assert [_bits(geometry._lp(*lp)) for lp in corpus[::-1]] \
        == expected[::-1]


def test_support_lp_failure_is_numerical(monkeypatch):
    # The subtrahend is a validated member, so a failed support LP is a
    # numerical failure (Unbounded, exit 3), not an input error.
    lp = geometry._lp
    monkeypatch.setattr(helly, "_lp", lambda *args: (4,) + lp(*args)[1:])
    with pytest.raises(Unbounded):
        minkowski_difference(HPolytope.box([2.0, 2.0]),
                             HPolytope.box([1.0, 1.0]))
