import numpy as np
import pytest

from motionfields import (
    EmptyBasis,
    build_instance,
    peter_weyl_basis,
    restriction_multiplicity,
    stabilizer,
)
from motionfields.groups import (
    CircleGroup, CompactGroup, ProductGroup, RotationGroup3, TrivialGroup,
)
import pointwise as pw
from quadrature import quadrature, refuse_node_rules
from motionfields import induction
from motionfields.induction import intertwiners


def weight_count_dim(ell):
    """Independent oracle: dimension as the number of circle weights."""
    return len([m for m in range(-ell, ell + 1)])


def weight_branching(ell, m):
    """Independent oracle for the rotation-to-circle restriction."""
    return 1 if abs(m) <= ell else 0


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
        assert pw.irrep_matrix(CircleGroup(), lab, 0.5)[0, 0] == pytest.approx(np.exp(1.5j))

    def test_so3_identity(self):
        assert np.abs(pw.irrep_matrix(RotationGroup3(), 1, np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_character_trace_consistency(self, rng):
        g = RotationGroup3()
        for lab in g.irrep_labels(3):
            k = pw.random(g, rng)
            assert pw.character(g, lab, k) == pytest.approx(
                np.trace(pw.irrep_matrix(g, lab, k)), abs=1e-10
            )

    def test_character_identity_dim(self):
        g = RotationGroup3()
        for lab in g.irrep_labels(4):
            assert pw.character(g, lab, np.eye(3)) == pytest.approx(g.irrep_dim(lab))


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
        fk = stabilizer(m3, (0.0,))  # K as a subgroup of itself: Schur's lemma
        for a in range(3):
            for b in range(3):
                assert restriction_multiplicity(m3.K, a, fk, b) == (1 if a == b else 0)

    def test_non_integer_guard(self, m3):
        # the quadrature oracle restricted to the zero-point stabilizer (all
        # of K) with an undersized rule: the Gauss-Legendre part is inexact
        # and the character integral lands far from an integer
        stab0 = stabilizer(m3, (0.0,))
        val = restriction_reference(m3.K, m3.K, 4, stab0.group, 1, order=2)
        assert abs(val - round(val.real)) > 1e-3
        assert restriction_multiplicity(m3.K, 4, stab0, 1) == 0

    def test_conjugated_embedding_invariance(self, m3, rng):
        # the weight rule reads only the standard embedding; the oracle on a
        # conjugated one must give the same multiplicities
        K, stab = m3.K, stabilizer(m3, (1.0,))
        k0 = pw.random(K, rng)

        def conj(s):
            return pw.compose(K, k0, pw.compose(K, pw.embed(K, stab.group, s), pw.inverse(K, k0)))

        for ell in range(4):
            for m in range(-4, 5):
                ref = restriction_reference(K, K, ell, stab.group, m, embed=conj)
                assert abs(restriction_multiplicity(m3.K, ell, stab, m) - ref) < 1e-12


    @pytest.mark.parametrize("instance", ["M2", "M3", "M2xM2"])
    def test_branching_lists_no_k_type(self, instance, monkeypatch):
        # closed forms: at band 10**9 no K-type and no weight is listed
        pair, top = build_instance(instance), 10**9

        def label(group):  # an irrep of band 10**9, or the trivial group's 0
            if isinstance(group, ProductGroup):
                return tuple(label(f) for f in group.factors)
            return 0 if isinstance(group, TrivialGroup) else top

        def refuse(*args):
            raise AssertionError("a list of K-types or weights was made")

        stabs = [stabilizer(pair, H) for H in shipped_points(instance)]
        for cls in (TrivialGroup, CircleGroup, RotationGroup3, ProductGroup):
            monkeypatch.setattr(cls, "irrep_labels", refuse)
            assert "weights" not in vars(cls)  # src has no listing of weights
        for stab in stabs:
            mu = label(stab.group)
            assert induction.branches_between(pair.K, stab, mu, -1, top)
            assert not induction.branches_between(pair.K, stab, mu, top, top)
            assert induction.restriction_multiplicity(pair.K, label(pair.K), stab, mu) == 1


class TestQuadratureOp:
    def test_circle_equispaced(self):
        rule = quadrature(CircleGroup(), 8)
        assert len(rule) == 8 and np.allclose(rule.weights, 1 / 8)

    def test_so3_schur_norm(self):
        g = RotationGroup3()
        rule = quadrature(g, 6)
        tab = pw.irrep_table(g, 1, rule.params)
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
    for lam, _ in basis.blocks:
        tab = pw.irrep_table(basis.K, lam, params)
        sq = np.sqrt(basis.K.irrep_dim(lam))
        Ts = intertwiners(basis.K, lam, basis.stab, basis.mu)
        rows.extend(sq * np.conj(np.einsum("nvb,ba->vna", tab, T)) for T in Ts)
    return np.concatenate(rows, axis=0)


def node_table(basis, rule):
    """The basis maps at every node of ``rule``, shape (size, n, d_rho)."""
    return basis_values(basis, rule.params)


def evaluate(basis, k):
    """All basis maps at one group element, shape (size, d_rho)."""
    return basis_values(basis, pw.params_of(basis.K, [k]))[:, 0]


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
        sizes = {lam: m3.K.irrep_dim(lam) * copies for lam, copies in basis.blocks}
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
            k = pw.random(m3.K, rng)
            s = pw.random(stab.group, rng)
            lhs = evaluate(basis, pw.compose(m3.K, k, pw.embed(m3.K, stab.group, s)))
            rho_inv = pw.irrep_matrix(stab.group, mu, pw.inverse(stab.group, s))
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

    def test_columns_span_each_k_type(self, m3, m2xm2):
        # each K-type's copies span one slice of the basis, in block order
        for basis in (peter_weyl_basis(m3, 1, (1.0,), 4),
                      peter_weyl_basis(m2xm2, (0, 2), (1.0, 0.0), 3)):
            assert list(basis.columns) == [lam for lam, _ in basis.blocks]
            for lam, cols in basis.columns.items():
                at = [i for i, b in enumerate(basis.block_index) if b[0] == lam]
                assert at == list(range(basis.size)[cols])
            assert basis.size == len(basis.block_index)

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
        tau = pw.irrep_matrix(K, lam, pw.embed(K, stab.group, s))
        rho = pw.irrep_matrix(stab.group, mu, s)
        P += w * np.kron(tau, rho.conj())
    evals, evecs = np.linalg.eigh((P + P.conj().T) / 2.0)
    return [evecs[:, i].reshape(d_lam, d_mu) for i in np.flatnonzero(evals > 0.5)]


def restriction_reference(K, big_group, big, sub, small, order=None, embed=None):
    """Character inner product over the subgroup ``sub`` of ``big_group`` <= K by quadrature.

    ``sub`` sits in K by ``embed`` (default: ``pointwise.embed``), and in
    ``big_group`` by the pullback from K; all nodes at once.
    """
    embed = embed or (lambda s: pw.embed(K, sub, s))
    band = big_group.char_band(big) + sub.char_band(small) + 2
    rule = quadrature(sub, band if order is None else order)
    inside = pw.params_of(big_group, [pw.pullback(K, big_group, embed(s)) for s in rule.nodes])
    chi_big = np.trace(pw.irrep_table(big_group, big, inside), axis1=1, axis2=2)
    chi_small = np.trace(pw.irrep_table(sub, small, rule.params), axis1=1, axis2=2)
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
        for mu in stab.group.irrep_labels(cutoff):
            # the basis holds the branching counts, the copies of each K-type
            copies = dict(peter_weyl_basis(pair, mu, H, cutoff).blocks)
            for lam in pair.K.irrep_labels(cutoff):
                got = intertwiners(pair.K, lam, stab, mu)
                ref = intertwiners_reference(pair.K, lam, stab, mu)
                assert len(got) == len(ref) == copies.get(lam, 0)
                for T, R in zip(got, ref):
                    phase = np.vdot(R, T)  # each T is fixed up to a unit phase
                    assert abs(abs(phase) - 1.0) < 1e-12
                    assert np.abs(T - phase * R).max() < 1e-12

    @pytest.mark.parametrize("instance,H,cutoff", REFERENCE_CASES)
    def test_restriction_multiplicity(self, instance, H, cutoff):
        pair = build_instance(instance)
        sub = stabilizer(pair, H)
        for big in pair.K.irrep_labels(cutoff):
            for small in sub.group.irrep_labels(cutoff):
                ref = restriction_reference(pair.K, pair.K, big, sub.group, small)
                assert abs(restriction_multiplicity(pair.K, big, sub, small) - ref) < 1e-12


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
        if pw.stab_contained(pair, small, big)
    ]


def weight_count(K, lam, stab, mu):
    """Oracle: the weights of lam that ``pw.restrict`` sends to mu, listed (all of K: Schur)."""
    if stab.positions is None:
        return int(lam == mu)
    return sum(pw.restrict(stab.group, w) == mu for w in pw.weights(K, lam))


# every stabilizer the pairs build: M2's circle and trivial group, M3's SO(3)
# and torus, and the four wall patterns of M2xM2
STABILIZER_POINTS = [
    ("M2", (0.0,)), ("M2", (1.0,)), ("M3", (0.0,)), ("M3", (1.0,)),
    ("M2xM2", (1.0, 1.0)), ("M2xM2", (1.0, 0.0)), ("M2xM2", (0.0, 1.0)), ("M2xM2", (0.0, 0.0)),
]


@pytest.mark.parametrize("instance,H", STABILIZER_POINTS, ids=[
    "M2-circle", "M2-trivial", "M3-SO3", "M3-torus",
    "M2xM2-regular", "M2xM2-wall2", "M2xM2-wall1", "M2xM2-zero",
])
def test_closed_form_branching_matches_weight_counts(instance, H):
    # counts for K-types up to band 8 and weights |mu| <= 10; the bands over
    # mu, up to 10, against every window (lo, hi] with -1 <= lo < hi <= 10
    pair = build_instance(instance)
    K, stab = pair.K, stabilizer(pair, H)
    for mu in stab.group.irrep_labels(10):
        counts = {lam: weight_count(K, lam, stab, mu) for lam in K.irrep_labels(10)}
        for lam in K.irrep_labels(8):
            assert restriction_multiplicity(K, lam, stab, mu) == counts[lam], (lam, mu)
        bands = {K.char_band(lam) for lam, c in counts.items() if c}
        for hi in range(11):
            for lo in range(-1, hi):
                expect = any(lo < b <= hi for b in bands)
                assert induction.branches_between(K, stab, mu, lo, hi) == expect, (mu, lo, hi)


@pytest.mark.parametrize("instance,H", STABILIZER_POINTS, ids=[
    "M2-circle", "M2-trivial", "M3-SO3", "M3-torus",
    "M2xM2-regular", "M2xM2-wall2", "M2xM2-wall1", "M2xM2-zero",
])
def test_closed_form_positions_match_weight_listing(instance, H):
    # an intertwiner is the unit column at a closed-form position: SO(3)'s
    # one index of weight mu, SO(2)'s index 0, on products the kron index
    # of the factors' positions; all of K is Schur's I / sqrt(d)
    pair = build_instance(instance)
    K, stab = pair.K, stabilizer(pair, H)
    cases = [(lam, mu) for mu in stab.group.irrep_labels(6) for lam in K.irrep_labels(6)]
    whole = stab.positions is None
    listed = [None if whole else
              [i for i, w in enumerate(pw.weights(K, lam)) if pw.restrict(stab.group, w) == mu]
              for lam, mu in cases]
    # src lists no weight: the listing is the oracle's alone
    for cls in (TrivialGroup, CircleGroup, RotationGroup3, ProductGroup):
        assert "weights" not in vars(cls)
    assert any(listed) or whole
    for (lam, mu), at in zip(cases, listed):
        d, Ts = K.irrep_dim(lam), intertwiners(K, lam, stab, mu)
        if at is None:
            assert len(Ts) == int(lam == mu) and all(np.allclose(T, np.eye(d) / np.sqrt(d)) for T in Ts)
        else:
            assert list(stab.positions(K, lam, mu)) == at
            assert np.array_equal(np.hstack([np.zeros((d, 0))] + Ts), np.eye(d)[:, at])


@pytest.mark.parametrize("instance", INSTANCES)
def test_stabilizer_restriction_matches_oracle(instance):
    # dual's calls: big_ctx is a stabilizer, not K, and sub sits inside it
    pair = build_instance(instance)
    for sub, big_ctx in contained_pairs(pair):
        for big in big_ctx.group.irrep_labels(4):
            for small in sub.group.irrep_labels(4):
                ref = restriction_reference(pair.K, big_ctx.group, big, sub.group, small)
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
