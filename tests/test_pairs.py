import numpy as np
import pointwise as pw
import pytest
from quadrature import quadrature
from scipy.optimize import minimize

from motionfields import (
    UnknownInstance,
    build_instance,
    dominant_representative,
    make_dual_point,
    stabilizer,
)
from motionfields.dual import GAMMA0, GAMMA1, GAMMA2
from motionfields.pairs import WALL_TOL, stab_contained


def weyl_images(pair, H):
    """The distinct Weyl images of a flat point."""
    return {w.apply(H) for w in pair.weyl_group}


def stratum(pair, H):
    """The stratum of a point located with the trivial label of its stabilizer."""
    label = (0,) * pair.rank if pair.rank > 1 else 0
    return make_dual_point(pair, label, H).stratum


def project_a(pair, X):
    """Coordinates of the a-component of X plus the orthogonal residual norm."""
    X = np.asarray(X, dtype=float)
    coords = pair.a_basis @ X
    return coords, float(np.linalg.norm(X - coords @ pair.a_basis))


class TestBuildInstance:
    def test_m3_shape(self, m3, rng):
        assert m3.rank == 1 and m3.dim_p == 3
        assert len(m3.weyl_group) == 2
        # numeric section of the orbit through the flat line: every orbit
        # point lying on the line has coordinate +|H| or -|H|, and both occur
        H = m3.embed_a((2.0,))
        hits = set()
        for w in m3.weyl_group:
            img = pw.adjoint(m3, pw.weyl_rep(m3, w), H)
            coords, res = project_a(m3, img)
            assert res < 1e-12
            hits.add(round(coords[0], 9))
        assert hits == {2.0, -2.0}
        for _ in range(300):
            img = pw.adjoint(m3, pw.random(m3.K, rng), H)
            coords, res = project_a(m3, img)
            if res < 1e-6:  # lands on the line: must be one of the two hits
                assert min(abs(coords[0] - 2.0), abs(coords[0] + 2.0)) < 1e-5
        assert len(hits) == len(m3.weyl_group)

    def test_m2xm2_shape(self, m2xm2):
        assert m2xm2.rank == 2
        assert len(m2xm2.positive_roots) == 2
        # walls are the two half-axes
        assert stratum(m2xm2, (1.0, 0.0)) == GAMMA1
        assert stratum(m2xm2, (0.0, 1.0)) == GAMMA1
        assert stratum(m2xm2, (1.0, 1.0)) == GAMMA0

    def test_m2_shape(self, m2):
        assert m2.dim_p == 2
        assert stabilizer(m2, (1.7,)).structure == "Trivial"
        assert stabilizer(m2, (0.0,)).structure == "Torus(1)"

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstance):
            build_instance("M4")


class TestClassify:
    def test_regular(self, m2xm2):
        assert stratum(m2xm2, (1.0, 1.0)) == GAMMA0
        assert m2xm2.wall_set((1.0, 1.0)) == ()

    def test_wall_subset(self, m2xm2):
        assert stratum(m2xm2, (1.0, 0.0)) == GAMMA1
        assert m2xm2.wall_set((1.0, 0.0)) == (1,)

    def test_zero(self, m3):
        assert stratum(m3, (0.0,)) == GAMMA2

    def test_classify_dominantizes_first(self, m2xm2):
        dom, _ = dominant_representative(m2xm2, (-1.0, 0.0))
        assert dom == (1.0, 0.0) and m2xm2.wall_set(dom) == (1,)
        assert make_dual_point(m2xm2, (0, 0), (-1.0, 0.0)).H == (1.0, 0.0)


class TestDominant:
    def test_m3_flip(self, m3):
        dom, w = dominant_representative(m3, (-2.0,))
        assert dom == (2.0,) and w.name == "flip"

    def test_m2xm2_componentwise(self, m2xm2):
        dom, w = dominant_representative(m2xm2, (-1.0, 3.0))
        assert dom == (1.0, 3.0) and w.name == "(flip,id)"

    def test_m2_identity(self, m2):
        dom, w = dominant_representative(m2, (5.0,))
        assert dom == (5.0,) and w.name == "id"

    def test_weyl_invariance(self, m2xm2, rng):
        # same dominant point from every orbit member, exactly
        for _ in range(50):
            H = tuple(rng.normal(size=2))
            doms = {dominant_representative(m2xm2, o)[0] for o in weyl_images(m2xm2, H)}
            assert len(doms) == 1


class TestWeylOrbit:
    # a point's Weyl images all have it as their dominant representative
    def test_m3(self, m3):
        assert weyl_images(m3, (2.0,)) == {(2.0,), (-2.0,)}
        assert dominant_representative(m3, (-2.0,))[0] == (2.0,)

    def test_wall_orbit_collapses(self, m2xm2):
        assert weyl_images(m2xm2, (1.0, 0.0)) == {(1.0, 0.0), (-1.0, 0.0)}
        for o in weyl_images(m2xm2, (1.0, 0.0)):
            assert dominant_representative(m2xm2, o)[0] == (1.0, 0.0)

    def test_regular_orbit_full(self, m2xm2):
        assert len(weyl_images(m2xm2, (1.0, 2.0))) == 4


class TestStabilizer:
    def test_m3_regular(self, m3):
        assert stabilizer(m3, (1.0,)).structure == "Torus(1)"
        assert stabilizer(m3, (0.0,)).structure == "SO3"

    def test_m2xm2_wall(self, m2xm2):
        assert stabilizer(m2xm2, (1.0, 0.0)).structure == "Product(Trivial, Torus(1))"

    def test_m2xm2_regular_equals_m(self, m2xm2):
        assert stabilizer(m2xm2, (1.0, 1.0)).structure == m2xm2.M.structure

    def test_depends_only_on_wall_set(self, m2xm2, rng):
        base = stabilizer(m2xm2, (1.0, 0.0)).structure
        for _ in range(20):
            h = float(rng.uniform(0.2, 5.0))
            assert stabilizer(m2xm2, (h, 0.0)).structure == base

    def test_containment_partial_order(self, m2xm2):
        assert stab_contained(m2xm2, (1.0, 1.0), (1.0, 0.0))
        assert stab_contained(m2xm2, (1.0, 0.0), (0.0, 0.0))
        assert not stab_contained(m2xm2, (0.0, 1.0), (1.0, 0.0))


class TestLinearForm:
    def test_phi_is_pairing_with_embedded_point(self, m3, rng):
        # phi_H(X) = <H, X> through the flat embedding
        for _ in range(10):
            H = (float(rng.uniform(0.1, 2.0)),)
            X = rng.normal(size=3)
            assert pw.phi(m3, H, X) == pytest.approx(H[0] * X[2], abs=1e-14)

    def test_phi_weyl_covariance(self, m2xm2, rng):
        # phi_{wH}(wX) = phi_H(X) since the form is invariant
        w = m2xm2.weyl_group[1]
        for _ in range(10):
            H = tuple(rng.normal(size=2))
            X = rng.normal(size=4)
            lhs = pw.phi(m2xm2, w.apply(H), pw.adjoint(m2xm2, pw.weyl_rep(m2xm2, w), X))
            assert lhs == pytest.approx(pw.phi(m2xm2, H, X), abs=1e-12)


class TestAdjoint:
    def test_m2_quarter_turn(self, m2):
        got = pw.adjoint(m2, np.pi / 2, (1.0, 0.0))
        assert np.abs(got - np.array([0.0, 1.0])).max() < 1e-15

    def test_m3_identity(self, m3, rng):
        X = rng.normal(size=3)
        assert np.abs(pw.adjoint(m3, np.eye(3), X) - X).max() == 0.0

    def test_norm_preserved(self, m3, rng):
        for _ in range(50):
            k = pw.random(m3.K, rng)
            X = rng.normal(size=3)
            assert abs(
                np.linalg.norm(pw.adjoint(m3, k, X)) - np.linalg.norm(X)
            ) < 1e-12


class TestInvariants:
    @pytest.mark.parametrize("name", ["M2", "M3", "M2xM2"])
    def test_inner_product_invariance(self, name, rng):
        pair = build_instance(name)
        for _ in range(30):
            k = pw.random(pair.K, rng)
            X, Y = rng.normal(size=pair.dim_p), rng.normal(size=pair.dim_p)
            lhs = pw.adjoint(pair, k, X) @ pw.adjoint(pair, k, Y)
            assert abs(lhs - X @ Y) < 1e-12

    @pytest.mark.parametrize("name", ["M2", "M3", "M2xM2"])
    def test_weyl_group_closed_and_permutes_roots(self, name):
        pair = build_instance(name)
        mats = [np.array(w.matrix) for w in pair.weyl_group]
        roots = [tuple(r) for r in pair.positive_roots] + [
            tuple(-r) for r in pair.positive_roots
        ]
        for a in mats:
            assert any(np.allclose(a @ a_inv, np.eye(pair.rank)) for a_inv in mats)
            for b in mats:
                prod = a @ b
                assert any(np.allclose(prod, c) for c in mats)
            # each element permutes {+-alpha}: alpha o w is again a root
            for r in roots:
                moved = tuple(np.asarray(r) @ a)
                assert any(np.allclose(moved, s) for s in roots)

    @pytest.mark.parametrize("name", ["M2", "M3", "M2xM2"])
    def test_orbit_meets_chamber_once(self, name, rng):
        pair = build_instance(name)
        for _ in range(300):
            H = rng.normal(size=pair.rank)
            orbit = weyl_images(pair, H)
            dominant = [
                o for o in orbit if np.all(pw.root_values(pair, o) >= -WALL_TOL)
            ]
            assert len(dominant) == 1

    def test_adjoint_orbit_section_m3(self, m3, rng):
        # minimizing the distance from Ad(k)X to the closed chamber ray
        # reaches zero, at the dominant representative of the intersection
        chamber_dir = m3.embed_a((1.0,))

        def dist(angles, X):
            k = pw.from_euler(*angles)
            img = pw.adjoint(m3, k, X)
            t = max(0.0, float(img @ chamber_dir))
            return float(np.linalg.norm(img - t * chamber_dir))

        coarse = quadrature(m3.K, 4)
        coarse_angles = list(zip(*coarse.params))
        for _ in range(20):
            X = rng.normal(size=3)
            best = min(coarse_angles, key=lambda a: dist(a, X))
            res = minimize(dist, x0=np.array(best), args=(X,), method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
            assert res.fun < 1e-8
            k = pw.from_euler(*res.x)
            reached, _ = project_a(m3, pw.adjoint(m3, k, X))
            dom, _ = dominant_representative(m3, (np.linalg.norm(X),))
            assert abs(reached[0] - dom[0]) < 1e-6


class TestStabilizerDescriptors:
    # one descriptor per wall pattern, built with the instance
    def test_rank_one(self, m2, m3):
        for pair in (m2, m3):
            regular = pair.stabilizer_of((1.0,))
            assert regular is pair.stabilizer_of((-2.5,)) is pair.M
            assert pair.stabilizer_of((0.0,)) is pair.stabilizer_of((1e-12,))
            assert pair.stabilizer_of((0.0,)) is not regular

    def test_product_wall_patterns(self, m2xm2):
        seen = {}
        for H in [(1.0, 2.0), (-0.5, 1.5), (0.0, 1.0), (0.0, -3.0), (2.0, 0.0), (0.0, 0.0)]:
            walls = tuple(abs(c) <= WALL_TOL for c in H)
            stab = m2xm2.stabilizer_of(H)
            assert seen.setdefault(walls, stab) is stab
        assert len({id(s) for s in seen.values()}) == 4
        assert seen[False, False] is m2xm2.M
        assert seen[True, False].structure == "Product(Torus(1), Trivial)"

    def test_float_root_tests_match_numpy(self, m2xm2, rng):
        for _ in range(50):
            H = tuple(rng.choice([0.0, 1.0, -1.0], size=2) * rng.uniform(0.1, 2.0, size=2))
            walls = tuple(np.flatnonzero(np.abs(pw.root_values(m2xm2, H)) <= WALL_TOL))
            assert m2xm2.wall_set(H) == walls
            dom, w = dominant_representative(m2xm2, H)
            assert np.all(pw.root_values(m2xm2, dom) >= -WALL_TOL)
            assert dom == w.apply(H)
