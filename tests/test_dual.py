import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motionfields
from motionfields import (
    EmptySequence,
    MixedInstance,
    StratumMismatch,
    converges,
    make_dual_point,
    restriction_multiplicity,
    transport_label,
)
from motionfields.dual import GAMMA0, GAMMA1, GAMMA2
from motionfields.config import ScenarioConfig
from motionfields.pairs import (
    WALL_TOL,
    SymmetricPairDescriptor,
    dominant_representative,
    stabilizer,
)
from motionfields.scenarios import bundled_scenario
from motionfields.verifier import run_verification
import pointwise as pw


# -- brute-force neighborhood oracle for ``converges`` -----------------------


class EpsilonTooLarge(Exception):
    """Neighborhood radius violates the stabilizer-containment hypothesis."""


def epsilon_threshold(pair, H):
    """Largest radius below which every nearby point has a smaller stabilizer.

    The distance from H to the wall of a positive root alpha is
    |alpha(H)| / |alpha|; radii beyond the smallest such distance allow
    points whose stabilizer is not contained in H's, breaking the
    neighborhood-basis hypothesis.
    """
    vals = pw.root_values(pair, H)
    norms = np.linalg.norm(pair.positive_roots, axis=1)
    dists = [abs(v) / n for v, n in zip(vals, norms) if abs(v) > WALL_TOL]
    return min(dists) if dists else math.inf


def in_neighborhood(pair, base, eps, candidate):
    """Membership of ``candidate`` in the basic neighborhood of ``base``.

    True iff the flat parts are within ``eps`` and the base's irrep
    restricted to the candidate's stabilizer contains the candidate's irrep.
    EpsilonTooLarge is raised when ``eps`` exceeds the containment threshold
    of the base point.
    """
    Hb = base.h_coords(pair)
    Hc = candidate.h_coords(pair)
    thr = epsilon_threshold(pair, Hb)
    if eps > thr:
        raise EpsilonTooLarge(f"eps={eps} exceeds the threshold {thr:.3g} at H={Hb}")
    if math.dist(pair.embed_a(Hc), pair.embed_a(Hb)) >= eps:
        return False
    big = stabilizer(pair, Hb).group
    sub = stabilizer(pair, Hc)
    return restriction_multiplicity(big, base.label, sub, candidate.label) > 0


def neighborhood_cross_check(pair, seq, limit, eps_grid=(0.5, 0.1, 0.01)):
    """Brute-force verdict: final half lies in every eps-neighborhood of the limit."""
    tail = seq[len(seq) - math.ceil(len(seq) / 2):]
    return all(in_neighborhood(pair, limit, eps, p) for eps in eps_grid for p in tail)


def weyl_move(pair, w, point):
    """The point (w.rho, w.H) from raw data, located afresh."""
    return make_dual_point(pair, transport_label(pair, w, point.H, point.label), w.apply(point.H))


def ray(pair, label, start, target, n=28):
    """Geometric tail H_k = target + (start-target) 2^{-k}, decisively convergent."""
    pts = []
    for k in range(n):
        H = tuple(t + (s - t) * 2.0 ** (-k) for s, t in zip(start, target))
        pts.append(make_dual_point(pair, label, H))
    return pts


class TestMakeDualPoint:
    def test_wall_point(self, m2xm2):
        p = make_dual_point(m2xm2, (0, 2), (1.0, 0.0))
        assert p.stratum == GAMMA1 and p.H == (1.0, 0.0)

    def test_regular_point(self, m3):
        p = make_dual_point(m3, 1, (2.0,))
        assert p.stratum == GAMMA0 and p.label == 1

    def test_zero_is_gamma2(self, m3):
        p = make_dual_point(m3, 2, (0.0,))
        assert p.stratum == GAMMA2 and p.H is None

    def test_dominantizes_and_transports(self, m3):
        p = make_dual_point(m3, 1, (-2.0,))
        assert p.H == (2.0,) and p.label == -1

    def test_stratum_mismatch(self, m3, m2xm2):
        with pytest.raises(StratumMismatch):
            make_dual_point(m3, -1, None)  # K-irreps of SO(3) are nonnegative
        with pytest.raises(StratumMismatch):
            make_dual_point(m2xm2, 5, (1.0, 0.0))  # wall stabilizer wants a pair

    @pytest.mark.parametrize(
        "instance,valid,invalid,H",
        [
            ("M3", 1, [True, 1.0], (1.0,)),
            ("M3", 1, [True, 1.0], None),
            ("M2", 0, [False, 0.0], (1.0,)),  # the trivial stabilizer's 0
            ("M2xM2", (0, 0), [[0, 0], (0.0, 0), (False, 0)], (1.0, 2.0)),
            ("M2xM2", (1, 0), [[1, 0], (1.0, 0), (True, 0)], (0.0, 1.0)),
        ],
    )
    def test_near_labels_refused_whatever_is_kept(self, instance, valid, invalid, H, request):
        # a label equal to a valid one (1.0 == True == 1) or unhashable
        # ([0, 0]) is refused, before and after the valid point is made
        pair = request.getfixturevalue(instance.lower())
        for made in (False, True):
            if made:
                assert make_dual_point(pair, valid, H).label == valid
            for label in invalid:
                with pytest.raises(StratumMismatch):
                    make_dual_point(pair, label, H)

    def test_points_are_kept(self):
        # the plan holds the parser's points, and the run samples those objects
        cfg = ScenarioConfig.from_dict(bundled_scenario("m3-default"))
        plan, pair = cfg.plan, cfg.build_pair()
        _, samples = run_verification(cfg.build_test_function(pair), pair, plan)
        for name, points in (("main", plan.grid), ("path", plan.path), ("mu", plan.mu_points)):
            assert len(samples[name].grid) == len(points)
            assert all(a is b for a, b in zip(samples[name].grid, points))


class TestEquivalent:
    # canonical points are equal exactly when they are equivalent
    def test_same_orbit(self, m3):
        a = make_dual_point(m3, 1, (2.0,))
        b = make_dual_point(m3, -1, (-2.0,))
        assert a == b

    def test_distinct_weights(self, m3):
        a = make_dual_point(m3, 1, (2.0,))
        b = make_dual_point(m3, -1, (2.0,))
        assert a != b

    def test_gamma2_by_label(self, m3):
        assert make_dual_point(m3, 2, None) == make_dual_point(m3, 2, (0.0,))
        assert make_dual_point(m3, 2, None) != make_dual_point(m3, 3, None)

    def test_mixed_instance(self, m2, m3):
        assert make_dual_point(m2, 0, (1.0,)) != make_dual_point(m3, 0, (1.0,))


class TestWeylAction:
    def test_flip_preserves_class(self, m3):
        p = make_dual_point(m3, 1, (2.0,))
        w = m3.weyl_group[1]
        assert weyl_move(m3, w, p) == p
        # the underlying raw relabeling is the character flip
        assert transport_label(m3, w, (2.0,), 1) == -1

    def test_identity(self, m3):
        p = make_dual_point(m3, 1, (2.0,))
        assert weyl_move(m3, m3.weyl_group[0], p) == p

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_identity_is_first(self, instance, request):
        # a dominant H is taken to itself by weyl_group[0], which moves no label
        pair = request.getfixturevalue(instance.lower())
        w = pair.weyl_group[0]
        assert np.array_equal(w.matrix, np.eye(pair.rank))
        assert np.array_equal(np.asarray(pw.weyl_rep(pair, w)), np.asarray(pw.identity(pair.K)))
        for H in [(1.0,) * pair.rank, (0.5,) + (0.0,) * (pair.rank - 1)]:
            assert dominant_representative(pair, H) == (H, w)

    def test_product_orbit(self, m2xm2):
        p = make_dual_point(m2xm2, (0, 0), (1.0, 2.0))
        for w in m2xm2.weyl_group:
            assert weyl_move(m2xm2, w, p) == p


def transport_label_reference(pair, w, H_from, label):
    """The transported label from characters matched at three random elements."""
    stab_from = stabilizer(pair, H_from)
    stab_to = stabilizer(pair, w.apply(tuple(np.atleast_1d(H_from))))
    kw = pw.weyl_rep(pair, w)
    kw_inv = pw.inverse(pair.K, kw)
    samples = [pw.random(stab_to.group, np.random.default_rng(7 + i)) for i in range(3)]
    moved = [
        pw.pullback(pair.K, stab_from.group, pw.compose(
            pair.K, kw_inv, pw.compose(pair.K, pw.embed(pair.K, stab_to.group, s), kw)))
        for s in samples
    ]
    targets = [pw.character(stab_from.group, label, m) for m in moved]
    for cand in stab_to.group.irrep_labels(stab_from.group.char_band(label)):
        chars = [pw.character(stab_to.group, cand, s) for s in samples]
        if np.allclose(chars, targets, atol=1e-8, rtol=0):
            return cand
    raise AssertionError(f"no transported label found for {label!r} under {w.name}")


class TestTransportLabel:
    """The closed-form label maps against characters matched at random samples."""

    POINTS = {  # regular and wall points, dominant or not
        "M2": [(1.3,), (-0.7,)],
        "M3": [(2.0,), (-0.4,)],
        "M2xM2": [(1.0, 2.0), (-0.5, 1.5), (1.0, 0.0), (0.0, -2.0), (-1.5, 0.0)],
    }

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_matches_random_sample_oracle(self, instance, request):
        pair = request.getfixturevalue(instance.lower())
        for H in self.POINTS[instance]:
            for label in stabilizer(pair, H).group.irrep_labels(4):
                for w in pair.weyl_group:
                    got = transport_label(pair, w, H, label)
                    assert got == transport_label_reference(pair, w, H, label)
                    if w is pair.weyl_group[0]:  # the identity moves no label
                        assert got == label
                    # a second call agrees
                    assert transport_label(pair, w, H, label) == got

    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_zero_point_labels_are_fixed(self, instance, request):
        # at H = 0 the stabilizer is all of K: conjugation by the Weyl
        # representative is inner and fixes every K-label
        pair = request.getfixturevalue(instance.lower())
        zero = pair.zero_point()
        for label in pair.K.irrep_labels(3):
            for w in pair.weyl_group:
                assert transport_label(pair, w, zero, label) == label
                assert transport_label_reference(pair, w, zero, label) == label

    def test_builds_no_quadrature_rule(self, tmp_path):
        # in a fresh interpreter, so that no label transported earlier is kept:
        # non-dominant points locate with no Gauss-Legendre or FFT node set
        code = """
import json
import numpy as np
from motionfields import build_instance, make_dual_point

def no_rule(*args):
    raise AssertionError("quadrature rule built")

np.polynomial.legendre.leggauss = np.fft.fft = np.fft.fft2 = no_rule
m3, m2xm2 = build_instance("M3"), build_instance("M2xM2")
points = [make_dual_point(m3, m, (-0.4,)) for m in range(-4, 5)]
points += [make_dual_point(m2xm2, (-3, 0), (0.0, -2.0)), make_dual_point(m2xm2, (0, 2), (-1.5, 0.0))]
print(json.dumps([[p.stratum, p.label, p.H] for p in points]))
"""
        src = str(Path(motionfields.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        expect = [[GAMMA0, -m, [0.4]] for m in range(-4, 5)]
        expect += [[GAMMA1, [-3, 0], [0.0, 2.0]], [GAMMA1, [0, 2], [1.5, 0.0]]]
        assert json.loads(out.stdout) == expect


class TestNeighborhood:
    def test_gamma2_base_contains_small_h(self, m3):
        base = make_dual_point(m3, 3, None)
        assert in_neighborhood(m3, base, 0.5, make_dual_point(m3, 2, (0.1,)))
        assert not in_neighborhood(m3, base, 0.5, make_dual_point(m3, 4, (0.1,)))

    def test_self_membership(self, m3):
        base = make_dual_point(m3, 1, (1.0,))
        for eps in (0.5, 0.1, 0.01):
            assert in_neighborhood(m3, base, eps, base)

    def test_distance_gate(self, m3):
        base = make_dual_point(m3, 1, (1.0,))
        far = make_dual_point(m3, 1, (1.4,))
        assert not in_neighborhood(m3, base, 0.3, far)

    def test_epsilon_guard(self, m3, m2xm2):
        base = make_dual_point(m3, 1, (1.0,))
        with pytest.raises(EpsilonTooLarge):
            in_neighborhood(m3, base, 1.5, base)
        wall = make_dual_point(m2xm2, (0, 1), (1.0, 0.0))
        with pytest.raises(EpsilonTooLarge):
            in_neighborhood(m2xm2, wall, 1.5, wall)
        # a zero-point base constrains nothing
        g2 = make_dual_point(m2xm2, (0, 0), None)
        assert in_neighborhood(m2xm2, g2, 10.0, g2)


class TestConverges:
    def test_gamma0_to_gamma0(self, m3):
        seq = ray(m3, 1, (2.0,), (1.0,), 30)
        lim = make_dual_point(m3, 1, (1.0,))
        cert = converges(m3, seq, lim)
        assert cert.verdict and cert.tail_index == 22
        # certificate invariant: from tail_index on, both clauses hold
        tail = cert.evidence[cert.tail_index:]
        assert all(rec["multiplicity"] > 0 for rec in tail)
        dists = [rec["distance"] for rec in tail]
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))

    def test_weight_drift_diverges(self, m3):
        seq = ray(m3, 2, (2.0,), (1.0,), 30)
        lim = make_dual_point(m3, 1, (1.0,))
        assert not converges(m3, seq, lim).verdict

    def test_into_k_dual(self, m3):
        seq = ray(m3, 2, (1.0,), (0.0,), 28)
        assert converges(m3, seq, make_dual_point(m3, 3, None)).verdict
        assert not converges(m3, seq, make_dual_point(m3, 1, None)).verdict

    def test_gamma1_limit_on_product(self, m2xm2):
        lim = make_dual_point(m2xm2, (0, 2), (1.0, 0.0))
        from_bulk = ray(m2xm2, (0, 0), (1.5, 0.5), (1.0, 0.0), 28)
        assert converges(m2xm2, from_bulk, lim).verdict
        along_wall = ray(m2xm2, (0, 2), (1.5, 0.0), (1.0, 0.0), 28)
        assert converges(m2xm2, along_wall, lim).verdict
        wrong_label = ray(m2xm2, (0, 1), (1.5, 0.0), (1.0, 0.0), 28)
        assert not converges(m2xm2, wrong_label, lim).verdict

    def test_gamma2_discreteness(self, m3):
        lim = make_dual_point(m3, 2, None)
        constant = [make_dual_point(m3, 2, None)] * 12
        assert converges(m3, constant, lim).verdict
        eventually = [make_dual_point(m3, 5, None)] * 3 + [make_dual_point(m3, 2, None)] * 12
        assert converges(m3, eventually, lim).verdict
        wandering = [make_dual_point(m3, k % 3, None) for k in range(16)]
        assert not converges(m3, wandering, lim).verdict
        distinct = [make_dual_point(m3, k, None) for k in range(8)]
        assert not converges(m3, distinct, lim).verdict

    def test_errors(self, m2, m3):
        with pytest.raises(EmptySequence):
            converges(m3, [], make_dual_point(m3, 0, None))
        with pytest.raises(MixedInstance):
            converges(
                m3,
                [make_dual_point(m2, 0, (1.0,))],
                make_dual_point(m3, 0, None),
            )

    def test_weyl_invariance_of_verdict(self, m3):
        # replacing every element and the limit by Weyl translates cannot
        # change the verdict: points canonicalize to the same data
        w = m3.weyl_group[1]
        seq = ray(m3, 1, (2.0,), (1.0,), 30)
        lim = make_dual_point(m3, 1, (1.0,))
        moved = [weyl_move(m3, w, p) for p in seq]
        mlim = weyl_move(m3, w, lim)
        assert converges(m3, seq, lim).verdict == converges(m3, moved, mlim).verdict

    def test_regular_limit_degeneration(self, m3):
        # toward a regular limit the wall-style clause collapses to weight
        # equality: positive multiplicity over M iff the weights agree
        from motionfields import restriction_multiplicity, stabilizer

        M = stabilizer(m3, (1.0,))
        for mu in range(-3, 4):
            for mun in range(-3, 4):
                mult = restriction_multiplicity(M.group, mu, M, mun)
                assert (mult > 0) == (mu == mun)

    @pytest.mark.parametrize(
        "label,start,target,limit_label,limit_H,expect",
        [
            (1, (2.0,), (1.0,), 1, (1.0,), True),
            (2, (1.0,), (0.0,), 3, None, True),
            (2, (1.0,), (0.0,), 1, None, False),
            (0, (2.5,), (1.0,), 0, (1.0,), True),
        ],
    )
    def test_cross_check_agreement(self, m3, label, start, target, limit_label,
                                   limit_H, expect):
        seq = ray(m3, label, start, target, 28)
        lim = make_dual_point(m3, limit_label, limit_H)
        cert = converges(m3, seq, lim)
        brute = neighborhood_cross_check(m3, seq, lim)
        assert cert.verdict == brute == expect

    @pytest.mark.parametrize("instance,label,start,target,limit_label,limit_H", [
        ("M3", 1, (2.0,), (1.0,), 1, (1.0,)),
        ("M3", 2, (1.0,), (0.0,), 3, None),
        ("M2xM2", (0, 0), (1.5, 0.5), (1.0, 0.0), (0, 2), (1.0, 0.0)),
        ("M2xM2", (0, 2), (1.5, 0.0), (1.0, 0.0), (0, 0), (1.0, 0.5)),  # not contained
    ])
    def test_one_wall_set_per_member_and_limit(self, instance, label, start, target,
                                               limit_label, limit_H, request, monkeypatch):
        # the limit's wall set is taken once per query and each member's of
        # the final half once; containment reads as pointwise's stab_contained
        pair = request.getfixturevalue(instance.lower())
        seq = ray(pair, label, start, target, 28)
        lim = make_dual_point(pair, limit_label, limit_H)
        calls, wall_set = [], SymmetricPairDescriptor.wall_set
        monkeypatch.setattr(SymmetricPairDescriptor, "wall_set",
                            lambda self, coords: calls.append(coords) or wall_set(self, coords))
        cert = converges(pair, seq, lim)
        assert len(calls) == 1 + 14
        monkeypatch.undo()
        contained = [pw.stab_contained(pair, p.h_coords(pair), lim.h_coords(pair))
                     for p in seq[14:]]
        assert [rec["stabilizer_contained"] for rec in cert.evidence[14:]] == contained

    def test_stuck_sequence_diverges_both_ways(self, m3):
        # distances pinned at 0.7 > every grid radius: both deciders say no
        seq = [make_dual_point(m3, 1, (1.7,))] * 24
        lim = make_dual_point(m3, 1, (1.0,))
        assert not converges(m3, seq, lim).verdict
        assert not neighborhood_cross_check(m3, seq, lim)
