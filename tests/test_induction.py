import numpy as np
import pytest

from motionfields import (
    EmptyBasis,
    build_instance,
    peter_weyl_basis,
    restriction_multiplicity,
    stabilizer,
)
from motionfields.groups import CircleGroup, CompactGroup, ProductGroup, RotationGroup3
from quadrature import quadrature, refuse_node_rules
from motionfields.induction import intertwiners
from motionfields.pairs import StabilizerDescriptor, stab_contained


def weight_count_dim(ell):
    """Independent oracle: dimension as the number of circle weights."""
    return len([m for m in range(-ell, ell + 1)])


def weight_branching(ell, m):
    """Independent oracle for the rotation-to-circle restriction."""
    return 1 if abs(m) <= ell else 0


def full_group(K):
    """K as a subgroup of itself: identity embedding, Schur's lemma."""
    return StabilizerDescriptor(K.name, K, lambda s: s, lambda k: k, None)


class TestEnumerate:
    def test_circle(self):
        assert CircleGroup().irrep_labels(2) == [-2, -1, 0, 1, 2]

    def test_so3_dims(self):
        g = RotationGroup3()
        assert g.irrep_labels(2) == [0, 1, 2]
        assert [g.irrep_dim(l) for l in g.irrep_labels(2)] == [
            weight_count_dim(l) for l in (0, 1, 2)
        ]

    def test_product_count(self):
        g = ProductGroup([CircleGroup(), CircleGroup()])
        assert len(g.irrep_labels(1)) == 9

    def test_negative_cutoff(self):
        # no irrep has a negative band
        for g in (CircleGroup(), RotationGroup3(), ProductGroup([CircleGroup(), CircleGroup()])):
            assert g.irrep_labels(-1) == []


class TestIrrepMatrixAndCharacter:
    def test_circle_scalar(self):
        lab = CircleGroup().irrep_labels(3)[-1]
        assert lab == 3
        assert CircleGroup().irrep_matrix(lab, 0.5)[0, 0] == pytest.approx(np.exp(1.5j))

    def test_so3_identity(self):
        assert np.abs(RotationGroup3().irrep_matrix(1, np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_character_trace_consistency(self, rng):
        g = RotationGroup3()
        for lab in g.irrep_labels(3):
            k = g.random(rng)
            assert g.character(lab, k) == pytest.approx(
                np.trace(g.irrep_matrix(lab, k)), abs=1e-10
            )

    def test_character_identity_dim(self):
        g = RotationGroup3()
        for lab in g.irrep_labels(4):
            assert g.character(lab, np.eye(3)) == pytest.approx(g.irrep_dim(lab))


class TestBranching:
    def test_so3_to_circle_table(self, m3):
        stab = stabilizer(m3, (1.0,))
        for ell in range(0, 6):
            for m in range(-6, 7):
                assert restriction_multiplicity(m3.K, ell, stab, m) == weight_branching(
                    ell, m
                )

    def test_specific_value(self, m3):
        stab = stabilizer(m3, (2.0,))
        assert restriction_multiplicity(m3.K, 3, stab, 2) == 1

    def test_self_restriction_schur(self, m3):
        fk = full_group(m3.K)
        for a in range(3):
            for b in range(3):
                assert restriction_multiplicity(m3.K, a, fk, b) == (1 if a == b else 0)

    def test_non_integer_guard(self, m3):
        # the quadrature oracle restricted to the zero-point stabilizer (all
        # of K) with an undersized rule: the Gauss-Legendre part is inexact
        # and the character integral lands far from an integer
        stab0 = stabilizer(m3, (0.0,))
        val = restriction_reference(full_group(m3.K), 4, stab0, 1, order=2)
        assert abs(val - round(val.real)) > 1e-3
        assert restriction_multiplicity(m3.K, 4, stab0, 1) == 0

    def test_conjugated_embedding_invariance(self, m3, rng):
        # the weight rule reads only the standard embedding; the oracle on a
        # conjugated one must give the same multiplicities
        stab = stabilizer(m3, (1.0,))
        k0 = m3.K.random(rng)
        conj = StabilizerDescriptor(
            stab.structure,
            stab.group,
            lambda s: m3.K.compose(k0, m3.K.compose(stab.embed(s), m3.K.inverse(k0))),
            None,
            stab.restrict,
        )
        for ell in range(4):
            for m in range(-4, 5):
                ref = restriction_reference(full_group(m3.K), ell, conj, m)
                assert abs(restriction_multiplicity(m3.K, ell, stab, m) - ref) < 1e-12


class TestQuadratureOp:
    def test_circle_equispaced(self):
        rule = quadrature(CircleGroup(), 8)
        assert len(rule) == 8 and np.allclose(rule.weights, 1 / 8)

    def test_so3_schur_norm(self):
        g = RotationGroup3()
        rule = quadrature(g, 6)
        tab = g.irrep_table(1, rule.params)
        assert np.sum(rule.weights * np.abs(tab[:, 1, 1]) ** 2) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_product_tensor_weights(self):
        g = ProductGroup([CircleGroup(), CircleGroup()])
        rule = quadrature(g, 3)
        assert np.allclose(rule.weights, 1 / 9)

    def test_order_guard(self):
        for g in (CircleGroup(), RotationGroup3(), ProductGroup([CircleGroup(), CircleGroup()])):
            with pytest.raises(ValueError, match="positive"):
                quadrature(g, 0)


def basis_values(basis, params):
    """The basis maps at the elements ``params`` of K, shape (size, n, d_rho)."""
    rows = []
    for lam, Ts in basis.blocks:
        tab = basis.K.irrep_table(lam, params)
        sq = np.sqrt(basis.K.irrep_dim(lam))
        rows.extend(sq * np.conj(np.einsum("nvb,ba->vna", tab, T)) for T in Ts)
    return np.concatenate(rows, axis=0)


def node_table(basis, rule):
    """The basis maps at every node of ``rule``, shape (size, n, d_rho)."""
    return basis_values(basis, rule.params)


def evaluate(basis, k):
    """All basis maps at one group element, shape (size, d_rho)."""
    return basis_values(basis, basis.K.params_of([k]))[:, 0]


def gram(basis, rule):
    """Gram matrix of the basis maps under ``rule``."""
    tab = node_table(basis, rule)
    return np.einsum("ina,n,jna->ij", np.conj(tab), rule.weights, tab)


class TestPeterWeyl:
    def test_m2_fourier_modes(self, m2):
        basis = peter_weyl_basis(m2, 0, (1.0,), 4)
        assert basis.size == 2 * 4 + 1
        # each block is a single character
        theta = 0.37
        for row, (lam, c, v) in enumerate(basis.block_index):
            val = evaluate(basis, theta)[row, 0]
            assert val == pytest.approx(np.exp(-1j * lam * theta))

    def test_m3_mu0_block_sizes(self, m3):
        basis = peter_weyl_basis(m3, 0, (1.0,), 4)
        sizes = {lam: m3.K.irrep_dim(lam) * len(Ts) for lam, Ts in basis.blocks}
        assert sizes == {l: 2 * l + 1 for l in range(5)}

    def test_m3_mu2_blocks_start_at_two(self, m3):
        basis = peter_weyl_basis(m3, 2, (1.0,), 5)
        assert [lam for lam, _ in basis.blocks] == [2, 3, 4, 5]

    def test_empty_basis(self, m3):
        with pytest.raises(EmptyBasis):
            peter_weyl_basis(m3, 5, (1.0,), 3)

    def test_frobenius_count(self, m3):
        stab = stabilizer(m3, (1.0,))
        for mu in (0, 1, 3):
            basis = peter_weyl_basis(m3, mu, (1.0,), 6)
            expect = sum(
                m3.K.irrep_dim(l) * restriction_multiplicity(m3.K, l, stab, mu)
                for l in range(7)
            )
            assert basis.size == expect

    def test_gram_identity(self, m3):
        for mu in (0, 2):
            basis = peter_weyl_basis(m3, mu, (1.0,), 3)
            rule = quadrature(m3.K, 2 * 3 + 4)
            G = gram(basis, rule)
            assert np.abs(G - np.eye(basis.size)).max() < 1e-10

    def test_covariance(self, m3, rng):
        mu = 2
        basis = peter_weyl_basis(m3, mu, (1.0,), 4)
        stab = basis.stab
        for _ in range(12):
            k = m3.K.random(rng)
            s = stab.group.random(rng)
            lhs = evaluate(basis, m3.K.compose(k, stab.embed(s)))
            rho_inv = stab.group.irrep_matrix(mu, stab.group.inverse(s))
            rhs = evaluate(basis, k) @ rho_inv.T
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_one_basis_per_stabilizer(self, m3, m2xm2):
        # keyed by (instance, mu, stabilizer structure, lambda_max): the flat
        # point enters only through its stabilizer
        basis = peter_weyl_basis(m3, 1, (1.0,), 4)
        assert peter_weyl_basis(m3, 1, (0.3,), 4) is basis
        assert peter_weyl_basis(m3, 1, (-2.0,), 4) is basis
        assert peter_weyl_basis(m3, 1, (1.0,), 5) is not basis
        assert peter_weyl_basis(m3, 1, (0.0,), 4).stab.structure == "SO3"
        wall = peter_weyl_basis(m2xm2, (0, 2), (1.0, 0.0), 3)
        assert peter_weyl_basis(m2xm2, (0, 2), (2.5, 0.0), 3) is wall
        assert basis.block_index is basis.block_index  # built once
        assert not hasattr(basis, "H")

    def test_wall_basis_on_product(self, m2xm2):
        basis = peter_weyl_basis(m2xm2, (0, 2), (1.0, 0.0), 3)
        # one block per first-factor weight, second factor pinned by the label
        assert [lam for lam, _ in basis.blocks] == [(m, 2) for m in range(-3, 4)]


def intertwiners_reference(K, lam, stab, mu):
    """Per-node projection sum with np.kron, one irrep matrix at a time."""
    d_lam, d_mu = K.irrep_dim(lam), stab.group.irrep_dim(mu)
    rule = quadrature(stab.group, K.char_band(lam) + stab.group.char_band(mu) + 2)
    P = np.zeros((d_lam * d_mu, d_lam * d_mu), dtype=complex)
    for w, s in zip(rule.weights, rule.nodes):
        tau = K.irrep_matrix(lam, stab.embed(s))
        rho = stab.group.irrep_matrix(mu, s)
        P += w * np.kron(tau, rho.conj())
    evals, evecs = np.linalg.eigh((P + P.conj().T) / 2.0)
    return [evecs[:, i].reshape(d_lam, d_mu) for i in np.flatnonzero(evals > 0.5)]


def restriction_reference(big_ctx, big, sub, small, order=None):
    """Character inner product over ``sub`` by quadrature, all nodes at once."""
    band = big_ctx.group.char_band(big) + sub.group.char_band(small) + 2
    rule = quadrature(sub.group, band if order is None else order)
    inside = big_ctx.group.params_of([big_ctx.pullback(sub.embed(s)) for s in rule.nodes])
    chi_big = np.trace(big_ctx.group.irrep_table(big, inside), axis1=1, axis2=2)
    chi_small = np.trace(sub.group.irrep_table(small, rule.params), axis1=1, axis2=2)
    return complex(np.sum(rule.weights * chi_big * np.conj(chi_small)))


# stabilizers of a regular point, of every wall and of zero; K-type cutoff
REFERENCE_CASES = [
    ("M2", (1.0,), 3), ("M2", (0.0,), 3),
    ("M3", (1.0,), 3), ("M3", (0.0,), 3),
    ("M2xM2", (1.0, 1.0), 1), ("M2xM2", (1.0, 0.0), 1),
    ("M2xM2", (0.0, 1.0), 1), ("M2xM2", (0.0, 0.0), 1),
]


class TestTablesMatchPerNodeReference:
    @pytest.mark.parametrize("instance,H,cutoff", REFERENCE_CASES)
    def test_intertwiners(self, instance, H, cutoff):
        pair = build_instance(instance)
        stab = stabilizer(pair, H)
        for lam in pair.K.irrep_labels(cutoff):
            for mu in stab.group.irrep_labels(cutoff):
                got = intertwiners(pair.K, lam, stab, mu)
                ref = intertwiners_reference(pair.K, lam, stab, mu)
                assert len(got) == len(ref)
                for T, R in zip(got, ref):
                    phase = np.vdot(R, T)  # each T is fixed up to a unit phase
                    assert abs(abs(phase) - 1.0) < 1e-12
                    assert np.abs(T - phase * R).max() < 1e-12

    @pytest.mark.parametrize("instance,H,cutoff", REFERENCE_CASES)
    def test_restriction_multiplicity(self, instance, H, cutoff):
        pair = build_instance(instance)
        big_ctx = full_group(pair.K)
        sub = stabilizer(pair, H)
        for big in pair.K.irrep_labels(cutoff):
            for small in sub.group.irrep_labels(cutoff):
                ref = restriction_reference(big_ctx, big, sub, small)
                assert abs(restriction_multiplicity(big_ctx.group, big, sub, small) - ref) < 1e-12


INSTANCES = ["M2", "M3", "M2xM2"]


def shipped_points(instance):
    return [H for name, H, _ in REFERENCE_CASES if name == instance]


def contained_pairs(pair):
    """(sub, big_ctx) stabilizer pairs of the reference points, sub inside big_ctx."""
    pts = shipped_points(pair.name)
    return [
        (stabilizer(pair, small), stabilizer(pair, big))
        for small in pts
        for big in pts
        if stab_contained(pair, small, big)
    ]


@pytest.mark.parametrize("instance", INSTANCES)
def test_stabilizer_restriction_matches_oracle(instance):
    # dual's calls: big_ctx is a stabilizer, not K, and sub sits inside it
    pair = build_instance(instance)
    for sub, big_ctx in contained_pairs(pair):
        for big in big_ctx.group.irrep_labels(4):
            for small in sub.group.irrep_labels(4):
                ref = restriction_reference(big_ctx, big, sub, small)
                assert abs(restriction_multiplicity(big_ctx.group, big, sub, small) - ref) < 1e-12


@pytest.mark.parametrize("instance", INSTANCES)
def test_branching_builds_no_quadrature_rule(instance, monkeypatch):
    assert not hasattr(CompactGroup, "quadrature")
    refuse_node_rules(monkeypatch)
    pair = build_instance(instance)
    cutoff = 2
    for H in shipped_points(instance):
        stab = stabilizer(pair, H)
        for mu in stab.group.irrep_labels(cutoff):
            assert peter_weyl_basis(pair, mu, H, cutoff).size > 0
            for lam in pair.K.irrep_labels(cutoff):
                intertwiners(pair.K, lam, stab, mu)
    for sub, big_ctx in contained_pairs(pair):
        for big in big_ctx.group.irrep_labels(cutoff):
            for small in sub.group.irrep_labels(cutoff):
                restriction_multiplicity(big_ctx.group, big, sub, small)
