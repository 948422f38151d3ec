"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each criterion is a single test; a helper prints the verdict line even when
the underlying assertions fail, so the one-line-per-criterion report survives
a red run.
"""
import contextlib
import math
import re
import time

import numpy as np
import pytest

from quanthelly import (AffineMap, Ellipsoid, GeneratorSpec, HPolytope,
                        colell_pipeline, contact_points,
                        critical_subfamily, emit_instance, generate,
                        john_decomposition, lowest_ellipsoid, min_semiaxis,
                        minkowski_difference, mvie, normalize_to_john_position,
                        theorem1_pipeline, transform_ellipsoid,
                        transform_polytope, unit_ball_volume)
from quanthelly.errors import EmptyInterior
from quanthelly.geometry import intersect_all
from quanthelly.instances import tangent_halfplane_family
from quanthelly.solvers import slice_below

from _oracles import mvie_oracle, sample_ellipsoid_points

from conftest import bounded_random_polytope


@contextlib.contextmanager
def criterion(n, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {n}] FAIL {label} "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[ACCEPTANCE {n}] PASS {label} "
          f"({time.perf_counter() - start:.1f}s)")


def surface_containment(rng, E, body, n=512, tol=1e-6):
    pts = sample_ellipsoid_points(rng, E.shape, E.center, n, surface=True)
    return bool(np.all(pts @ body.A.T <= body.b + tol))


def test_criterion_1_mvie_fixtures():
    with criterion(1, "MVIE fixtures: cubes d=2..6 and triangle oracle"):
        start = time.perf_counter()
        for d in range(2, 7):
            out = mvie(HPolytope.box(np.ones(d)))
            assert np.linalg.norm(out.ellipsoid.shape - np.eye(d)) <= 1e-6
            assert np.linalg.norm(out.ellipsoid.center) <= 1e-6
        s = 1.0 / math.sqrt(2.0)
        tri = HPolytope(
            np.array([[0.0, -1.0], [-1.0, 0.0], [s, s]]),
            np.array([0.0, 0.0, s]))
        out = mvie(tri)
        B, _ = mvie_oracle(tri.A, tri.b, x0=np.array([0.25, 0.25]))
        oracle_vol = math.pi * np.linalg.det(B)
        assert abs(out.volume - oracle_vol) <= 1e-5
        assert abs(out.volume - math.pi / (6.0 * math.sqrt(3.0))) <= 1e-5
        assert time.perf_counter() - start < 5.0


def test_criterion_2_john_decompositions():
    with criterion(2, "John decompositions: square weights and 20 random "
                      "tangent instances (d=2,3)"):
        start = time.perf_counter()
        square = HPolytope.box([1.0, 1.0])
        dec = john_decomposition([u for u, _ in contact_points(square)])
        assert np.allclose(np.sort(dec.weights), 0.5, atol=1e-10)
        assert dec.residual_balance <= 1e-10
        assert dec.residual_identity <= 1e-10
        for d in (2, 3):
            for seed in range(20):
                spec = GeneratorSpec("tangent-halfspaces", seed, d, 1, 1,
                                     target_volume=unit_ball_volume(d),
                                     halfspaces_per_body=4 * d)
                body = generate(spec).classes.body(0, 0)
                _, Q = normalize_to_john_position(body)
                dec = john_decomposition([u for u, _ in contact_points(Q)])
                assert dec.residual_balance <= 1e-6
                assert dec.residual_identity <= 1e-6
                assert abs(dec.weight_sum - d) <= 1e-6
                assert d + 1 <= dec.support_size <= d * (d + 3) // 2
        assert time.perf_counter() - start < 10.0


def test_criterion_3_lowest_fixtures():
    with criterion(3, "lowest-ellipsoid fixtures and cut-below minimality"):
        fixtures = [
            (HPolytope.box([2.0, 2.0]), np.diag([2.0, 0.5]),
             np.array([0.0, -1.5]), -1.0),
            (HPolytope.box([1.0, 1.0]), np.eye(2),
             np.array([0.0, 0.0]), 1.0),
            (HPolytope.box([1.0, 2.0], center=[0.0, -1.0]), np.eye(2),
             np.array([0.0, -2.0]), -1.0),
        ]
        for P, shape, center, height in fixtures:
            out = lowest_ellipsoid(P, math.pi)
            assert np.abs(out.ellipsoid.shape - shape).max() <= 1e-5
            assert np.abs(out.ellipsoid.center - center).max() <= 1e-5
            assert abs(out.objective - height) <= 1e-5
            cut = mvie(slice_below(P, out.objective - 1e-3))
            assert cut.volume < math.pi


def test_criterion_4_critical_subfamilies():
    with criterion(4, "critical subfamilies: 50 tangent families of 12 "
                      "half-planes, at most 5 members"):
        start = time.perf_counter()
        for seed in range(50):
            family = tangent_halfplane_family(seed, 12, 2)
            cert = critical_subfamily(family)
            assert len(cert.selected_indices) <= 5
            assert cert.volume_gap <= 1e-5
        assert time.perf_counter() - start < 30.0


def test_criterion_5_colell_20_seeds(rng):
    with criterion(5, "colell pipeline on 20 common-ball seeds"):
        start = time.perf_counter()
        for seed in range(20):
            inst = generate(GeneratorSpec("common-ball", seed, 2, 5, 3,
                                          target_volume=1.0))
            rep = colell_pipeline(inst.classes, 1.0)
            assert rep.witness_volume >= 1.0 - 1e-6
            for body in inst.classes.classes[rep.witness_class]:
                slack = body.b - (body.A @ rep.witness_ellipsoid.center
                                  + np.linalg.norm(
                                      body.A @ rep.witness_ellipsoid.shape,
                                      axis=1))
                assert slack.min() >= -1e-6
                assert surface_containment(rng, rep.witness_ellipsoid, body)
        assert time.perf_counter() - start < 120.0


def test_criterion_6_theorem1_20_seeds(rng):
    with criterion(6, "theorem1 pipeline on 20 common-ball seeds"):
        start = time.perf_counter()
        for seed in range(20):
            inst = generate(GeneratorSpec("common-ball", seed, 2, 6, 3,
                                          target_volume=1.0))
            rep = theorem1_pipeline(inst.classes, 1.0)
            assert min_semiaxis(rep.witness_ellipsoid) > 0.0
            assert rep.certificates["cut_mvie_gap"] <= 1e-5
            for body in inst.classes.classes[rep.witness_class]:
                slack = body.b - (body.A @ rep.witness_ellipsoid.center
                                  + np.linalg.norm(
                                      body.A @ rep.witness_ellipsoid.shape,
                                      axis=1))
                assert slack.min() >= -1e-6
                assert surface_containment(rng, rep.witness_ellipsoid, body)
        assert time.perf_counter() - start < 300.0


def test_criterion_7_minkowski_oracle(rng):
    with criterion(7, "Minkowski difference vs direct containment: 100 pairs "
                      "x 10^4 translates"):
        for _ in range(100):
            P = bounded_random_polytope(rng, 2)
            M = rng.normal(size=(2, 2))
            shape = 0.25 * (M @ M.T + 0.5 * np.eye(2))
            center = rng.uniform(-0.5, 0.5, size=2)
            L = Ellipsoid(shape, center)
            D = minkowski_difference(P, L)
            ts = rng.uniform(-2.5, 2.5, size=(10 ** 4, 2))
            slack = (D.b[None, :] - ts @ D.A.T).min(axis=1)

            # direct support values from explicit extreme points of L:
            # argmax of a . x over {B u + c : |u| <= 1} is c + B (B a)/|B a|
            V = P.A @ shape  # row i = B a_i (B symmetric)
            ext = center + (V / np.linalg.norm(V, axis=1, keepdims=True)) @ shape
            H = (P.A @ ext.T).max(axis=1)
            direct = (P.b[None, :] - H[None, :] - ts @ P.A.T).min(axis=1)
            inside = slack >= 1e-9
            outside = slack <= -1e-9
            assert not np.any(inside & (direct < -1e-9))
            assert not np.any(outside & (direct > 1e-9))

            # spot-check actual membership for a few translates each way
            for t in ts[inside][:5]:
                pts = sample_ellipsoid_points(rng, shape, center + t, 64,
                                              surface=True)
                assert np.all(pts @ P.A.T <= P.b + 1e-9)
            for t, s in zip(ts[outside][:5], slack[outside][:5]):
                worst = int((D.b - D.A @ t).argmin())
                x = t + ext[worst]
                assert (P.A @ x - P.b).max() >= -s - 1e-9


def test_criterion_8_hellyklee_bound(rng):
    with criterion(8, "min semi-axis bound delta/d^(d-1) for inscribed "
                      "ellipsoids in John position (100 bodies)"):
        for d in (2, 3):
            for _ in range(50):
                P = bounded_random_polytope(rng, d)
                _, Q = normalize_to_john_position(P)
                Rm = np.linalg.qr(rng.normal(size=(d, d)))[0]
                Q = transform_polytope(AffineMap(Rm, np.zeros(d)), Q)
                delta = rng.uniform(0.25, 0.9)
                out = lowest_ellipsoid(Q, delta * unit_ball_volume(d))
                assert min_semiaxis(out.ellipsoid) >= \
                    delta / d ** (d - 1) - 1e-9


def test_criterion_9_equivariance_and_monotonicity(rng):
    with criterion(9, "affine equivariance (1e-5) and monotonicity (1e-8) "
                      "suites, 50 cases each"):
        for _ in range(50):
            P = bounded_random_polytope(rng, 2)
            Lm = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
            T = AffineMap(Lm, rng.normal(size=2))
            direct = mvie(transform_polytope(T, P)).ellipsoid
            mapped = transform_ellipsoid(T, mvie(P).ellipsoid)
            scale = max(1.0, float(np.linalg.norm(mapped.shape)))
            assert np.linalg.norm(direct.shape - mapped.shape) <= 1e-5 * scale
            assert np.linalg.norm(direct.center - mapped.center) <= 1e-5 * scale

            # lowest-ellipsoid equivariance under height-preserving maps:
            # last row (0, alpha) with alpha > 0
            alpha = rng.uniform(0.5, 2.0)
            Lm2 = np.array([[rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)],
                            [0.0, alpha]])
            T2 = AffineMap(Lm2, rng.normal(size=2))
            target = 0.3 * mvie(P).volume
            base = lowest_ellipsoid(P, target).ellipsoid
            direct = lowest_ellipsoid(
                transform_polytope(T2, P),
                abs(np.linalg.det(Lm2)) * target).ellipsoid
            mapped = transform_ellipsoid(T2, base)
            scale = max(1.0, float(np.linalg.norm(mapped.shape)))
            assert np.linalg.norm(direct.shape - mapped.shape) <= 1e-5 * scale
            assert np.linalg.norm(direct.center - mapped.center) <= 1e-5 * scale

        for _ in range(50):
            P = bounded_random_polytope(rng, 2)
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            Q = HPolytope(
                np.vstack([P.A, a]),
                np.concatenate([P.b, [rng.uniform(0.6, 1.5)]]))
            base = mvie(P)
            try:
                cut = mvie(Q)
            except EmptyInterior:
                continue  # the extra constraint emptied the interior
            assert cut.volume <= base.volume * (1.0 + 1e-8)
            target = 0.3 * cut.volume
            h_before = lowest_ellipsoid(P, target).objective
            h_after = lowest_ellipsoid(Q, target).objective
            assert h_after >= h_before - 1e-8 * max(1.0, abs(h_before))


def test_criterion_10_thread_determinism(tmp_path):
    from quanthelly.cli import EXIT_OK, main

    with criterion(10, "byte-identical colell reports for --threads 1 vs 8 "
                       "on 5 fixtures"):
        fixtures = [
            GeneratorSpec("common-ball", 1, 2, 5, 2),
            GeneratorSpec("common-ball", 2, 2, 5, 3),
            GeneratorSpec("common-ball", 3, 2, 5, 1),
            GeneratorSpec("nested-boxes", 4, 2, 5, 1),
            GeneratorSpec("tangent-halfspaces", 5, 2, 5, 1),
        ]
        for i, spec in enumerate(fixtures):
            inst_path = tmp_path / f"fixture{i}.json"
            emit_instance(generate(spec), inst_path)
            texts = []
            for threads in ("1", "8"):
                out_path = tmp_path / f"report{i}_{threads}.json"
                code = main(["run", "colell", str(inst_path),
                             "--threads", threads, "--out", str(out_path)])
                assert code == EXIT_OK
                text = out_path.read_text()
                texts.append(re.sub(r'^\s*"wall_time":.*\n', "", text,
                                    flags=re.M))
            assert texts[0] == texts[1]
