import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_jacobi

from motionfields import groups
from motionfields.groups import (
    CircleGroup,
    CompactGroup,
    ProductGroup,
    RotationGroup3,
    TrivialGroup,
    clebsch_gordan,
    wigner_3j,
)
from motionfields.testfunctions import PolyGaussian, TestFunction
from motionfields.pairs import StabilizerDescriptor, SymmetricPairDescriptor, WeylElement, build_instance
import pointwise as pw
from pointwise import euler_zyz, rot_x, rot_y, rot_z, wigner_d
from quadrature import coefficient_sums, nodes_from_params, quadrature


def rotation_angle(R):
    """Rotation angle in [0, pi] of an SO(3) element."""
    return math.acos(min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0)))


class TestCircle:
    def test_irrep_values(self):
        g = CircleGroup()
        assert pw.irrep_matrix(g, 3, 0.4)[0, 0] == pytest.approx(np.exp(0.4j * 3))
        assert pw.character(g, -2, 1.1) == pytest.approx(np.exp(-2.2j))

    def test_quadrature_nodes(self):
        rule = quadrature(CircleGroup(), 8)
        assert len(rule) == 8
        assert np.allclose(rule.weights, 1.0 / 8)
        # exactness: modes below the order integrate to 0, mode 0 to 1
        for m in range(-7, 8):
            val = np.sum(rule.weights * np.exp(1j * m * rule.params))
            assert abs(val - (1.0 if m == 0 else 0.0)) < 1e-14

    def test_compose_inverse(self):
        g = CircleGroup()
        a = pw.compose(g, 5.0, pw.inverse(g, 5.0))
        assert a == pytest.approx(0.0)


def jacobi_wigner_d(ell, beta):
    """Reference little-d: the Jacobi-polynomial form, one entry at a time.

    d_{m'm}(beta) = pref sin(beta/2)^a cos(beta/2)^b P_k^{(a,b)}(cos beta),
    with k, a, b and the exact prefactor chosen per entry by which of
    ell +- m, ell +- m' is smallest.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    s, c, x = np.sin(beta / 2.0), np.cos(beta / 2.0), np.cos(beta)
    out = np.empty((beta.size, 2 * ell + 1, 2 * ell + 1))
    for i, mp in enumerate(range(-ell, ell + 1)):
        for j, m in enumerate(range(-ell, ell + 1)):
            k = min(ell + m, ell - m, ell + mp, ell - mp)
            if k == ell + m:
                a, lam = mp - m, mp - m
            elif k == ell - m:
                a, lam = m - mp, 0
            elif k == ell + mp:
                a, lam = m - mp, 0
            else:
                a, lam = mp - m, mp - m
            b = 2 * (ell - k) - a
            ratio = Fraction(math.comb(2 * ell - k, k + a), math.comb(k + b, b))
            pref = (-1.0) ** lam * math.sqrt(ratio)
            out[:, i, j] = pref * s**a * c**b * eval_jacobi(k, a, b, x)
    return out


WIGNER_ELLS = list(range(13)) + [20, 40, 80]


def wigner_betas():
    edges = [0.0, np.pi, 1e-9, np.pi - 1e-9]
    return np.concatenate([edges, np.random.default_rng(11).uniform(0.0, np.pi, 6)])


class TestWignerD:
    @pytest.mark.parametrize("ell", WIGNER_ELLS)
    def test_matches_jacobi_form(self, ell):
        beta = wigner_betas()
        assert np.abs(wigner_d(ell, beta) - jacobi_wigner_d(ell, beta)).max() <= 1e-12

    @pytest.mark.parametrize("ell", WIGNER_ELLS)
    def test_orthogonal_and_group_law(self, ell):
        beta = wigner_betas()
        d = wigner_d(ell, beta)
        eye = np.eye(2 * ell + 1)
        assert np.abs(d @ d.transpose(0, 2, 1) - eye).max() <= 1e-13
        # d(b1) d(b2) = d(b1 + b2), sums beyond pi included
        b1, b2 = beta[4:7], beta[7:10]
        assert np.abs(d[4:7] @ d[7:10] - wigner_d(ell, b1 + b2)).max() <= 1e-13

    def test_ell_one_closed_form(self):
        # indices [m'+1, m+1], m', m = -1..1
        beta = np.array([0.0, 0.3, np.pi / 2, 2.2])
        d = wigner_d(1, beta)
        c, s = np.cos(beta), np.sin(beta)
        expect = np.empty((beta.size, 3, 3))
        expect[:, 2, 2] = (1 + c) / 2
        expect[:, 2, 1] = -s / np.sqrt(2)
        expect[:, 2, 0] = (1 - c) / 2
        expect[:, 1, 2] = s / np.sqrt(2)
        expect[:, 1, 1] = c
        expect[:, 1, 0] = -s / np.sqrt(2)
        expect[:, 0, 2] = (1 - c) / 2
        expect[:, 0, 1] = s / np.sqrt(2)
        expect[:, 0, 0] = (1 + c) / 2
        assert np.abs(d - expect).max() < 1e-13
        assert np.abs(d[0] - np.eye(3)).max() < 1e-14
        for i in range(beta.size):
            assert np.abs(d[i] @ d[i].T - np.eye(3)).max() < 1e-13

    def test_euler_round_trip(self, rng):
        g = RotationGroup3()
        for _ in range(25):
            R = pw.random(g, rng)
            a, b, c = euler_zyz(R)
            assert np.abs(pw.from_euler(a, b, c) - R).max() < 1e-12
        # gimbal cases
        for R in (np.eye(3), rot_z(0.7), rot_y(np.pi), rot_z(0.4) @ rot_y(np.pi)):
            a, b, c = euler_zyz(R)
            assert np.abs(pw.from_euler(a, b, c) - R).max() < 1e-12


class TestSO3:
    def test_identity_matrix(self, rng):
        g = RotationGroup3()
        assert np.abs(pw.irrep_matrix(g, 1, np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_unitary(self, rng):
        g = RotationGroup3()
        for ell in (0, 1, 3, 8):
            U = pw.irrep_matrix(g, ell, pw.random(g, rng))
            assert np.abs(U @ U.conj().T - np.eye(2 * ell + 1)).max() < 1e-10

    def test_homomorphism(self, rng):
        g = RotationGroup3()
        for _ in range(8):
            a, b = pw.random(g, rng), pw.random(g, rng)
            for ell in (1, 2, 5):
                lhs = pw.irrep_matrix(g, ell, a) @ pw.irrep_matrix(g, ell, b)
                rhs = pw.irrep_matrix(g, ell, pw.compose(g, a, b))
                assert np.abs(lhs - rhs).max() < 1e-9

    def test_ell_one_trace_is_rotation_trace(self, rng):
        # the dim-3 irrep is the standard action: traces agree with the
        # 3x3 rotation matrix itself
        g = RotationGroup3()
        for _ in range(10):
            R = pw.random(g, rng)
            assert pw.character(g, 1, R) == pytest.approx(np.trace(R), abs=1e-10)

    def test_character_dirichlet(self, rng):
        # oracle: sum of weight exponentials at the rotation angle
        g = RotationGroup3()
        for _ in range(6):
            R = pw.random(g, rng)
            theta = rotation_angle(R)
            for ell in (0, 1, 2, 4):
                oracle = sum(np.exp(1j * m * theta) for m in range(-ell, ell + 1))
                assert pw.character(g, ell, R) == pytest.approx(oracle, abs=1e-9)

    def test_character_at_identity(self):
        g = RotationGroup3()
        for ell in range(5):
            assert pw.character(g, ell, np.eye(3)) == pytest.approx(2 * ell + 1)

    def test_axis_rotation_trace(self):
        # rotation by theta about a fixed axis: trace of the dim-3 irrep
        g = RotationGroup3()
        theta = 0.9
        axis_rot = rot_x(theta)
        assert pw.character(g, 1, axis_rot) == pytest.approx(1 + 2 * np.cos(theta))

    def test_quadrature_schur(self):
        g = RotationGroup3()
        rule = quadrature(g, 8)
        tabs = {l: pw.irrep_table(g, l, rule.params) for l in (0, 1, 2, 3, 4)}
        # int |D^1_00|^2 = 1/3
        val = np.sum(rule.weights * np.abs(tabs[1][:, 1, 1]) ** 2)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
        # orthogonality for lambda, lambda' <= order/2 on sampled entries
        rng = np.random.default_rng(5)
        for _ in range(25):
            l1, l2 = rng.integers(0, 5, size=2)
            i1, j1 = rng.integers(0, 2 * l1 + 1, size=2)
            i2, j2 = rng.integers(0, 2 * l2 + 1, size=2)
            got = np.sum(
                rule.weights * tabs[l1][:, i1, j1] * np.conj(tabs[l2][:, i2, j2])
            )
            expect = (
                1.0 / (2 * l1 + 1)
                if (l1, i1, j1) == (l2, i2, j2)
                else 0.0
            )
            assert abs(got - expect) < 1e-10

    def test_node_table_matches_pointwise(self, rng):
        g = RotationGroup3()
        rule = quadrature(g, 4)
        tab = pw.irrep_table(g, 2, rule.params)
        for idx in (0, 7, len(rule) - 1):
            direct = pw.irrep_matrix(g, 2, rule.nodes[idx])
            assert np.abs(tab[idx] - direct).max() < 1e-12


class TestProductAndTrivial:
    def test_product_rule_weights_multiply(self):
        g = ProductGroup([CircleGroup(), CircleGroup()])
        rule = quadrature(g, 4)
        assert len(rule) == 16
        assert np.allclose(rule.weights, 1.0 / 16)
        assert rule.weights.sum() == pytest.approx(1.0)

    def test_product_labels_in_c_order(self):
        g = ProductGroup([CircleGroup(), RotationGroup3()])
        assert g.irrep_labels(1) == [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_product_matrix_is_kron(self):
        g = ProductGroup([CircleGroup(), CircleGroup()])
        val = pw.irrep_matrix(g, (2, -1), (0.3, 0.7))[0, 0]
        assert val == pytest.approx(np.exp(1j * (2 * 0.3 - 0.7)))

    def test_product_node_table_consistent(self):
        g = ProductGroup([CircleGroup(), CircleGroup()])
        rule = quadrature(g, 3)
        tab = pw.irrep_table(g, (1, 2), rule.params)
        for i, node in enumerate(rule.nodes):
            assert tab[i, 0, 0] == pytest.approx(pw.irrep_matrix(g, (1, 2), node)[0, 0])

    def test_trivial(self):
        g = TrivialGroup()
        assert g.irrep_labels(5) == [0]
        rule = quadrature(g, 3)
        assert len(rule) == 1 and rule.weights[0] == 1.0


class TestQuadratureCache:
    """One rule per (group, order), shared and read-only."""

    GROUPS = [TrivialGroup, CircleGroup, RotationGroup3,
              lambda: ProductGroup([CircleGroup(), TrivialGroup()])]

    @pytest.mark.parametrize("make_group", GROUPS)
    def test_one_rule_per_group_and_order(self, make_group):
        rule = quadrature(make_group(), 5)
        # a second instance of the same group gets the same rule
        assert quadrature(make_group(), 5) is rule
        assert quadrature(make_group(), 6) is not rule
        assert rule.order == 5

    @pytest.mark.parametrize("make_group", GROUPS)
    def test_rule_arrays_are_read_only(self, make_group):
        rule = quadrature(make_group(), 4)
        arrays = [rule.weights]
        todo = [rule.params]
        while todo:
            x = todo.pop()
            if isinstance(x, tuple):
                todo.extend(x)
            elif isinstance(x, np.ndarray):
                arrays.append(x)
        assert len(arrays) >= 2
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0


def _random_trig_poly(group, rng, band):
    """Coefficients for a random trigonometric polynomial on the group."""
    terms = []
    for lab in group.irrep_labels(band):
        d = group.irrep_dim(lab)
        i, j = rng.integers(0, d, size=2)
        c = rng.normal() + 1j * rng.normal()
        terms.append((c, lab, int(i), int(j)))
    return terms


@pytest.mark.parametrize("make_group,band", [(CircleGroup, 4), (RotationGroup3, 3)])
def test_plancherel_identity(make_group, band, rng):
    """L2 norm equals the weighted HS mass of the integrated irreps."""
    group = make_group()
    terms = _random_trig_poly(group, rng, band)
    rule = quadrature(group, 4 * band + 4)
    tabs = {lab: pw.irrep_table(group, lab, rule.params) for lab in group.irrep_labels(2 * band)}
    vals = np.zeros(len(rule), dtype=complex)
    for c, lab, i, j in terms:
        vals += c * tabs[lab][:, i, j]
    l2 = np.sum(rule.weights * np.abs(vals) ** 2)
    mass = 0.0
    for lab in group.irrep_labels(2 * band):
        op = np.einsum("n,nab->ab", rule.weights * vals, tabs[lab])
        mass += group.irrep_dim(lab) * np.linalg.norm(op) ** 2
    assert abs(l2 - mass) < 1e-8


def character_oracle(group, label, elt):
    """Closed-form characters: weight exponentials, factor by factor."""
    if isinstance(group, ProductGroup):
        return np.prod(
            [character_oracle(f, w, x) for f, w, x in zip(group.factors, label, elt)]
        )
    if isinstance(group, RotationGroup3):
        theta = rotation_angle(elt)
        return sum(np.exp(1j * m * theta) for m in range(-label, label + 1))
    if isinstance(group, CircleGroup):
        return np.exp(1j * label * elt)
    return 1.0


def _flat(params):
    if isinstance(params, tuple):
        return np.concatenate([_flat(p) for p in params])
    return np.asarray(params, dtype=float)


# K and the stabilizer of a regular point, of every wall and of zero
SINGLE_PATH_GROUPS = [
    ("M2", None), ("M2", (1.0,)), ("M2", (0.0,)),
    ("M3", None), ("M3", (1.0,)), ("M3", (0.0,)),
    ("M2xM2", None), ("M2xM2", (1.0, 1.0)), ("M2xM2", (1.0, 0.0)),
    ("M2xM2", (0.0, 1.0)), ("M2xM2", (0.0, 0.0)),
]


# the pointwise model of K and of the pairs, which lives in tests/pointwise.py
MOVED_METHODS = {
    "identity", "compose", "inverse", "random", "irrep_table", "params_of",
    "irrep_matrix", "character", "from_euler", "irrep_node_table",
}
MOVED_FIELDS = {"embed", "pullback", "rep_in_k", "adjoint_action", "inner_product", "phi",
                "root_values"}


class TestSinglePath:
    """src holds only the label algebra; every irrep value comes from the oracle's table."""

    def test_src_holds_no_element_model(self):
        for cls in (CompactGroup, TrivialGroup, CircleGroup, RotationGroup3, ProductGroup):
            assert not MOVED_METHODS & set(vars(cls)), cls
        for name in ("rot_x", "rot_y", "rot_z", "euler_zyz", "_jy_eigenvectors", "wigner_d"):
            assert not hasattr(groups, name)
        for cls in (StabilizerDescriptor, WeylElement, SymmetricPairDescriptor):
            fields = set(cls.__dataclass_fields__) | set(vars(cls))
            assert not MOVED_FIELDS & fields, cls
        for cls in (TestFunction, PolyGaussian):
            assert not {"value", "_u_table"} & set(vars(cls)), cls
        # the one pointwise field left: the benchmark's tracer wraps it
        assert "ad_orbit_table" in SymmetricPairDescriptor.__dataclass_fields__

    @pytest.mark.parametrize("instance,H", SINGLE_PATH_GROUPS)
    def test_matrix_is_a_table_row_and_character_matches_oracle(self, instance, H, rng):
        pair = build_instance(instance)
        group = pair.K if H is None else pair.stabilizer_of(H).group
        elts = [pw.random(group, rng) for _ in range(5)]
        params = pw.params_of(group, elts)
        # params_of inverts the oracle's nodes_from_params
        again = pw.params_of(group, nodes_from_params(group, params))
        assert np.abs(_flat(again) - _flat(params)).max() < 1e-12
        for label in group.irrep_labels(2):
            table = pw.irrep_table(group, label, params)
            assert table.shape == (5, group.irrep_dim(label), group.irrep_dim(label))
            for elt, row in zip(elts, table):
                assert np.abs(pw.irrep_matrix(group, label, elt) - row).max() < 1e-12
                assert pw.character(group, label, elt) == pytest.approx(
                    character_oracle(group, label, elt), abs=1e-10
                )


class TestSchurSum:
    """The closed-form Schur sums against the quadrature sums with g = 1."""

    GROUPS = [TrivialGroup, CircleGroup, RotationGroup3,
              lambda: ProductGroup([CircleGroup(), CircleGroup()])]

    @pytest.mark.parametrize("make_group", GROUPS)
    def test_contragredient_conjugates_the_irrep(self, make_group, rng):
        group = make_group()
        params = pw.params_of(group, [pw.random(group, rng) for _ in range(4)])
        for label in group.irrep_labels(3):
            bar, J = group.contragredient(label)
            assert np.abs(J @ J.conj().T - np.eye(len(J))).max() < 1e-15
            expect = J @ np.conj(pw.irrep_table(group, label, params)) @ J.conj().T
            assert np.abs(pw.irrep_table(group, bar, params) - expect).max() < 1e-12

    @pytest.mark.parametrize("make_group", GROUPS)
    def test_matches_coefficient_sums_with_unit_orbit_factor(self, make_group):
        # every label and K-type of band <= 5 and every row, at the order
        # that integrates the product of the two coefficients exactly
        group = make_group()
        labels = group.irrep_labels(5)
        for label in labels:
            rule = quadrature(group, 1 + group.char_band(label) + 5)
            rows = range(group.irrep_dim(label))
            ones = np.ones(len(rule))
            sums = coefficient_sums(group, rule, labels, [(ones, label, row) for row in rows])
            for row, quad in zip(rows, sums):
                bar, S = group.schur_sum(label, row)
                for lam, Sq in zip(labels, quad):
                    expect = S if lam == bar else 0.0
                    assert np.abs(Sq - expect).max() <= 1e-14

    @pytest.mark.parametrize("make_group", GROUPS)
    def test_cached_by_identity_and_read_only(self, make_group):
        # keyed by (group name, label, row): a second group object of the
        # same name shares the arrays, which equal a fresh computation
        for label in make_group().irrep_labels(2):
            for row in range(make_group().irrep_dim(label)):
                bar, S = make_group().schur_sum(label, row)
                fresh_bar, J = make_group().contragredient(label)
                fresh = np.einsum("v,br->rvb", J[:, row], J.conj()) / len(J)
                assert bar == fresh_bar
                assert np.array_equal(S, fresh)
                assert make_group().schur_sum(label, row)[1] is S
                assert not S.flags.writeable
                with pytest.raises(ValueError):
                    S[0, 0, 0] = 1.0


def base_col(group, J):
    """The column of ``orbit_expansion``'s coefficients: that of the weight-0 vector."""
    if isinstance(group, ProductGroup):
        dims = [f.irrep_dim(x) for f, x in zip(group.factors, J)]
        return int(np.ravel_multi_index([base_col(f, x) for f, x in zip(group.factors, J)], dims))
    return int(J) if isinstance(group, RotationGroup3) else 0


class TestClebschGordan:
    @pytest.mark.parametrize("j1,j2", [(0, 2), (1, 1), (2, 1), (3, 2), (2, 3)])
    def test_reduces_the_tensor_product(self, j1, j2, rng):
        # D^j1 (x) D^j2 = C (sum_J D^J) C^T with C[(m1, m2), (J, M)] = <j1 m1 j2 m2|J M>,
        # checked against the Wigner-d evaluation of the irreps
        g = RotationGroup3()
        Js = range(abs(j1 - j2), j1 + j2 + 1)
        C = np.array([
            [clebsch_gordan(j1, m1, j2, m2, J, M) for J in Js for M in range(-J, J + 1)]
            for m1 in range(-j1, j1 + 1) for m2 in range(-j2, j2 + 1)
        ])
        assert np.abs(C @ C.T - np.eye(len(C))).max() < 1e-14
        for _ in range(3):
            R = pw.random(g, rng)
            blocks = [pw.irrep_matrix(g, J, R) for J in Js]
            total = np.zeros((len(C), len(C)), dtype=complex)
            at = 0
            for B in blocks:
                total[at:at + len(B), at:at + len(B)] = B
                at += len(B)
            lhs = np.kron(pw.irrep_matrix(g, j1, R), pw.irrep_matrix(g, j2, R))
            assert np.abs(lhs - C @ total @ C.T).max() < 1e-12

    def test_3j_values_and_symmetries(self):
        # (j m j -m | 0 0) = (-1)^(j - m) / sqrt(2j + 1) and the 3j phase
        for j in range(4):
            for m in range(-j, j + 1):
                want = (-1) ** (j - m) / np.sqrt(2 * j + 1)
                assert clebsch_gordan(j, m, j, -m, 0, 0) == pytest.approx(want, abs=1e-15)
                assert wigner_3j(j, j, 0, m, -m, 0) == pytest.approx(want, abs=1e-15)
        assert wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(np.sqrt(2 / 15), abs=1e-15)
        # an odd permutation of the columns multiplies by (-1)^(j1 + j2 + j3)
        for args in [(1, 2, 2, 1, -1, 0), (2, 3, 4, -2, 1, 1), (1, 1, 1, 1, 0, -1)]:
            j1, j2, j3, m1, m2, m3 = args
            sign = (-1) ** (j1 + j2 + j3)
            assert wigner_3j(j2, j1, j3, m2, m1, m3) == pytest.approx(
                sign * wigner_3j(*args), abs=1e-15)
            assert wigner_3j(j2, j3, j1, m2, m3, m1) == pytest.approx(wigner_3j(*args), abs=1e-15)

    def test_large_spins_stay_exact(self):
        # the alternating Racah sum is formed in integers: no cancellation
        # error at spins where a float sum would lose every digit
        total = sum(clebsch_gordan(30, m, 30, -m, 30, 0) ** 2 for m in range(-30, 31))
        assert total == pytest.approx(1.0, abs=1e-14)


ORBIT_INSTANCES = ["M2", "M3", "M2xM2"]


def poly_monomials(dim, degree):
    return [a for a in np.ndindex(*([degree + 1] * dim)) if sum(a) <= degree]


class TestOrbitExpansion:
    @pytest.mark.parametrize("instance", ORBIT_INSTANCES)
    def test_matches_the_adjoint_action(self, instance, rng):
        # sum c tau_J(k)[a, e] is the monomial of Ad(k)H, the instance's action
        pair = build_instance(instance)
        K = pair.K
        Hs = rng.normal(size=(3, pair.rank))
        for _ in range(3):
            k = pw.random(K, rng)
            X = np.array([pw.adjoint(pair, k, pair.embed_a(H)) for H in Hs])
            for alpha in poly_monomials(pair.dim_p, 4 if pair.dim_p < 4 else 2):
                got = sum(
                    c * pw.irrep_matrix(K, J, k)[a, base_col(K, J)]
                    for (J, a), c in K.orbit_expansion(alpha, Hs).items()
                )
                want = np.prod(X ** np.array(alpha), axis=1)
                assert np.abs(got - want).max() < 1e-12


GAUNT_GROUPS = [CircleGroup, RotationGroup3, lambda: ProductGroup([CircleGroup(), CircleGroup()])]


class TestGaunt:
    @pytest.mark.parametrize("make_group", GAUNT_GROUPS)
    def test_matches_node_sums(self, make_group):
        # int tau_J[a, e] tau_label[row, r] tau_lam[v, b] dk against the
        # exact product rule, every key of band <= 2, label and lam of band <= 2
        group = make_group()
        rule = quadrature(group, 7)
        labels = group.irrep_labels(2)
        for J in labels:
            col = base_col(group, J)
            for a in range(group.irrep_dim(J)):
                g = pw.irrep_table(group, J, rule.params)[:, a, col]
                for label in labels:
                    rows = range(group.irrep_dim(label))
                    sums = coefficient_sums(group, rule, labels, [(g, label, row) for row in rows])
                    for row, per_lam in zip(rows, sums):
                        for lam, S in zip(labels, per_lam):
                            got = group.gaunt((J, a), label, row, lam)
                            assert np.abs(got - S).max() < 1e-13

    def test_cached_and_read_only(self):
        g = RotationGroup3()
        A = g.gaunt((1, 0), 2, 1, 3)
        assert RotationGroup3().gaunt((1, 0), 2, 1, 3) is A
        with pytest.raises(ValueError):
            A[0, 0, 0] = 1.0
