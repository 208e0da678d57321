"""Compact groups used as K and as stabilizer factors.

Groups are small value-like objects.  Elements are plain data: an angle for
the circle, a 3x3 rotation matrix for SO(3), ``()`` for the trivial group,
and tuples of factor elements for products.  Irreps are addressed by integer
weights (SO(2): m in Z; SO(3): ell >= 0; products: tuples).  Each group
evaluates its irreps in one vectorised method, ``irrep_table``, at elements
given in the parameter form of its quadrature rules (angles, Euler triples,
tuples of factor parameters); single irrep matrices, characters and node
tables are rows, traces and calls of it.  Groups also build normalized-Haar
quadrature rules on themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np


@dataclass(eq=False)
class QuadratureRule:
    """Nodes and positive weights realizing the normalized Haar integral.

    ``params`` holds the raw parametrization arrays (angles, Euler triples)
    used for vectorized tabulation; ``nodes`` are the corresponding group
    elements.  A rule that is a tensor grid also keeps its 1-D ``axes``;
    ``params`` and ``weights`` then run over the grid in C order.  Rules are
    shared (``CompactGroup.quadrature``), so their arrays and nodes are read-only.
    """

    group: "CompactGroup"
    order: int
    weights: np.ndarray
    params: object
    axes: tuple | None = None
    _nodes: tuple = field(default=None, repr=False)

    def __post_init__(self):
        _freeze((self.weights, self.params, self.axes))

    @property
    def nodes(self):
        if self._nodes is None:
            self._nodes = _freeze(tuple(self.group._nodes_from_params(self.params)))
        return self._nodes

    def __len__(self):
        return len(self.weights)


class CompactGroup:
    """Common interface; concrete groups override everything that matters."""

    name = "?"

    # -- elements ---------------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def compose(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    # -- irreps -----------------------------------------------------------
    def irrep_labels(self, cutoff):
        raise NotImplementedError

    def irrep_dim(self, label):
        raise NotImplementedError

    def validate_label(self, label):
        raise NotImplementedError

    def char_band(self, label):
        """Max weight magnitude occurring in the irrep (quadrature sizing)."""
        raise NotImplementedError

    def weights(self, label):
        """Torus weight of each standard basis vector of the irrep, in basis order."""
        raise NotImplementedError

    def contragredient(self, label):
        """(bar, J): the label of the conjugate irrep and a unitary J with
        tau_bar(k) = J conj(tau_label(k)) J^H for every k."""
        raise NotImplementedError

    def irrep_table(self, label, params):
        """tau_label at n elements given as ``params``, shape (n, d, d).

        ``params`` has the form of ``QuadratureRule.params``.  This is the
        one place where a concrete group evaluates its irreps.
        """
        raise NotImplementedError

    def params_of(self, elts):
        """The ``params`` form of a list of elements."""
        raise NotImplementedError

    def irrep_matrix(self, label, elt):
        """tau_label(elt): a one-element ``irrep_table``."""
        return self.irrep_table(label, self.params_of([elt]))[0]

    def character(self, label, elt):
        return complex(np.trace(self.irrep_matrix(label, elt)))

    # -- integration ------------------------------------------------------
    def quadrature(self, order):
        """The normalized-Haar rule of ``order``, built once per (group, order)."""
        if order < 1:
            raise ValueError("order must be positive")
        key = (self.name, int(order))
        if key not in _RULES:
            _RULES[key] = self._quadrature(order)
        return _RULES[key]

    def _quadrature(self, order):
        raise NotImplementedError

    def coefficient_sums(self, rule, lams, requests):
        """Weighted node sums of products of two irrep matrices.

        For each request ``(g, label, row)``, with ``g`` a value per node of
        ``rule``, and each K-type ``lam`` in ``lams`` this is

            S[r, v, b] = sum_n w_n g_n tau_label(k_n)[row, r] tau_lam(k_n)[v, b].

        Returns one list of S arrays (in ``lams`` order) per request.
        """
        tabs = {}

        def table(lab):
            if lab not in tabs:
                tabs[lab] = self.irrep_table(lab, rule.params)
            return tabs[lab]

        out = []
        for g, label, row in requests:
            u = (rule.weights * g)[:, None] * table(label)[:, row, :]  # (n, r)
            out.append(
                [
                    np.tensordot(u, table(lam), axes=(0, 0))  # (r, v, b)
                    for lam in lams
                ]
            )
        return out

    def schur_sum(self, label, row):
        """The Haar integrals of ``coefficient_sums`` with g = 1, in closed form.

        int tau_label(k)[row, r] tau_lam(k)[v, b] dk vanishes unless lam is
        the contragredient ``bar`` of ``label``; there Schur orthogonality
        against tau_bar = J conj(tau_label) J^H gives

            S[r, v, b] = J[v, row] conj(J[b, r]) / d_label.

        Returns (bar, S), computed once per (group, label, row); S is read-only.
        """
        key = (self.name, label, row)
        if key not in _SCHUR:
            bar, J = self.contragredient(label)
            S = np.einsum("v,br->rvb", J[:, row], J.conj()) / self.irrep_dim(label)
            _SCHUR[key] = (bar, _freeze(S))
        return _SCHUR[key]

    def _nodes_from_params(self, params):
        raise NotImplementedError


class TrivialGroup(CompactGroup):
    name = "Trivial"

    def identity(self):
        return ()

    def compose(self, a, b):
        return ()

    def inverse(self, a):
        return ()

    def random(self, rng):
        return ()

    def irrep_labels(self, cutoff):
        return [0]

    def irrep_dim(self, label):
        return 1

    def validate_label(self, label):
        return _is_weight(label) and label == 0

    def char_band(self, label):
        return 0

    def weights(self, label):
        return [0]

    def contragredient(self, label):
        return 0, np.ones((1, 1))

    def irrep_table(self, label, params):
        return np.ones((len(params), 1, 1), dtype=complex)

    def params_of(self, elts):
        return np.zeros(len(elts))

    def _quadrature(self, order):
        return QuadratureRule(self, order, np.ones(1), np.zeros(1))

    def _nodes_from_params(self, params):
        return [()] * len(params)


class CircleGroup(CompactGroup):
    """SO(2), elements are angles; irrep m acts by exp(i m theta)."""

    name = "SO(2)"

    def identity(self):
        return 0.0

    def compose(self, a, b):
        return float(np.mod(a + b, 2.0 * np.pi))

    def inverse(self, a):
        return float(np.mod(-a, 2.0 * np.pi))

    def random(self, rng):
        return float(rng.uniform(0.0, 2.0 * np.pi))

    def irrep_labels(self, cutoff):
        return list(range(-cutoff, cutoff + 1))

    def irrep_dim(self, label):
        return 1

    def validate_label(self, label):
        return _is_weight(label)

    def char_band(self, label):
        return abs(int(label))

    def weights(self, label):
        return [label]

    def contragredient(self, label):
        return -int(label), np.ones((1, 1))

    def irrep_table(self, label, params):
        return np.exp(1j * label * params)[:, None, None]

    def params_of(self, elts):
        return np.array(elts, dtype=float)

    def _quadrature(self, order):
        n = max(int(order), 1)
        theta = 2.0 * np.pi * np.arange(n) / n
        return QuadratureRule(self, order, np.full(n, 1.0 / n), theta)

    def _nodes_from_params(self, params):
        return [float(t) for t in params]


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_zyz(R):
    """Extract (alpha, beta, gamma) with R = Rz(alpha) Ry(beta) Rz(gamma)."""
    r22 = min(1.0, max(-1.0, float(R[2, 2])))
    # atan2 keeps full precision near beta = 0 and pi, where acos(r22)
    # loses half the digits
    beta = math.atan2(math.hypot(R[0, 2], R[1, 2]), r22)
    if abs(r22) < 1.0 - 1e-12:
        alpha = math.atan2(R[1, 2], R[0, 2])
        gamma = math.atan2(R[2, 1], -R[2, 0])
    elif r22 > 0.0:  # beta ~ 0: R = Rz(alpha + gamma)
        alpha = math.atan2(R[1, 0], R[0, 0])
        gamma = 0.0
    else:  # beta ~ pi: R = Rz(alpha - gamma) Ry(pi)
        alpha = math.atan2(-R[1, 0], -R[0, 0])
        gamma = 0.0
    return alpha, beta, gamma


@lru_cache(maxsize=None)
def _jy_eigenvectors(ell):
    """Unitary V with J_y = V diag(m) V^H, m = -ell..ell, and V^H (read-only).

    J_y is the tridiagonal Hermitian matrix of (J+ - J-)/(2i) in the basis
    |m>, from <m+1|J+|m> = sqrt(ell(ell+1) - m(m+1)); its eigenvalues are
    exactly -ell..ell, which eigh returns in ascending order.
    """
    m = np.arange(-ell, ell)
    up = np.sqrt(ell * (ell + 1) - m * (m + 1.0))
    jy = (np.diag(up, -1) - np.diag(up, 1)) / 2j
    V = np.linalg.eigh(jy)[1]
    Vh = V.conj().T.copy()
    V.setflags(write=False)
    Vh.setflags(write=False)
    return V, Vh


def wigner_d(ell, beta):
    """Little-d matrices d^ell(beta), shape (len(beta), 2ell+1, 2ell+1).

    Row/column indices run over m', m = -ell..ell.  Entries follow the
    z-y-z convention D^ell_{m'm}(a,b,c) = e^{-i m' a} d^ell_{m'm}(b) e^{-i m c}.
    d^ell(beta) = exp(-i beta J_y) is evaluated from the exact
    diagonalisation of J_y (Feng, Wang, Yang & Jin, Phys. Rev. E 92,
    043307, 2015): one batched product over all beta.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    ell = int(ell)
    V, Vh = _jy_eigenvectors(ell)
    m = np.arange(-ell, ell + 1)
    phase = np.exp(-1j * np.outer(beta, m))
    return ((V * phase[:, None, :]) @ Vh).real


class RotationGroup3(CompactGroup):
    """SO(3), elements are 3x3 rotation matrices; irrep ell has dim 2ell+1."""

    name = "SO(3)"

    def identity(self):
        return np.eye(3)

    def compose(self, a, b):
        return a @ b

    def inverse(self, a):
        return a.T.copy()

    def random(self, rng):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def from_euler(self, alpha, beta, gamma):
        return rot_z(alpha) @ rot_y(beta) @ rot_z(gamma)

    def irrep_labels(self, cutoff):
        return list(range(0, cutoff + 1))

    def irrep_dim(self, label):
        return 2 * int(label) + 1

    def validate_label(self, label):
        return _is_weight(label) and label >= 0

    def char_band(self, label):
        return int(label)

    def weights(self, label):
        """rot_z(theta) acts on e_m (m = -ell..ell) by e^{-i m theta}: weight -m."""
        return list(range(int(label), -int(label) - 1, -1))

    def contragredient(self, label):
        """conj(D^ell_{m'm}) = (-1)^(m'-m) D^ell_{-m',-m}: J[2ell - a, a] = (-1)^(a - ell)."""
        ell = int(label)
        a = np.arange(2 * ell + 1)
        J = np.zeros((2 * ell + 1, 2 * ell + 1))
        J[2 * ell - a, a] = (-1.0) ** (a - ell)
        return ell, J

    def irrep_table(self, label, params):
        alpha, beta, gamma = params
        ell = int(label)
        ub, inv = np.unique(beta, return_inverse=True)
        d = wigner_d(ell, ub)[inv]
        m = np.arange(-ell, ell + 1)
        ea = np.exp(-1j * np.outer(alpha, m))
        eg = np.exp(-1j * np.outer(gamma, m))
        return ea[:, :, None] * d * eg[:, None, :]

    def params_of(self, elts):
        return tuple(np.array([euler_zyz(R) for R in elts], dtype=float).reshape(-1, 3).T)

    def _quadrature(self, order):
        """Product rule exact for matrix-coefficient products of total degree <= order.

        Equispaced angles in alpha and gamma kill Fourier modes up to the
        order; Gauss-Legendre in cos(beta) handles the Jacobi-polynomial part.
        """
        q = max(int(order), 1)
        n_ang = q + 1
        n_beta = q // 2 + 1
        ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
        xb, wb = np.polynomial.legendre.leggauss(n_beta)
        beta = np.arccos(xb)
        A, B, G = np.meshgrid(ang, beta, ang, indexing="ij")
        WB = np.broadcast_to(wb[None, :, None], A.shape)
        weights = (WB / (2.0 * n_ang * n_ang)).ravel()
        params = (A.ravel(), B.ravel(), G.ravel())
        return QuadratureRule(self, order, weights, params, axes=(ang, beta, ang))

    def coefficient_sums(self, rule, lams, requests):
        """The product-rule sums of the base class, Euler-factorised.

        Both factors are e^{-i m' alpha} d(beta) e^{-i m gamma}, so at each
        beta node the sums over the equispaced alpha and gamma axes of the
        rule pick one frequency of the 2-D DFT of g (aliasing included), and
        what is left is one Gauss-Legendre sum over beta of little-d
        products.
        """
        alpha, beta, gamma = rule.axes
        shape = (len(alpha), len(beta), len(gamma))
        w_beta = rule.weights.reshape(shape).sum(axis=(0, 2))
        d = [wigner_d(int(lam), beta) for lam in lams]
        out = []
        for g, label, row in requests:
            ell = int(label)
            ghat = np.fft.fft2(np.reshape(g, shape), axes=(0, 2)) / (shape[0] * shape[2])
            u = w_beta[:, None] * wigner_d(ell, beta)[:, row, :]  # (q, r)
            m_r = np.arange(-ell, ell + 1)
            sums = []
            for lam, d_lam in zip(lams, d):
                m = np.arange(-int(lam), int(lam) + 1)
                ka = (row - ell + m) % shape[0]  # alpha frequency per v
                kg = (m_r[:, None] + m[None, :]) % shape[2]  # gamma frequency per (r, b)
                sel = ghat[ka[None, :, None], :, kg[:, None, :]]  # (r, v, b, q)
                sums.append(np.einsum("qr,qvb,rvbq->rvb", u, d_lam, sel))
            out.append(sums)
        return out

    def _nodes_from_params(self, params):
        alpha, beta, gamma = params
        return [self.from_euler(a, b, g) for a, b, g in zip(alpha, beta, gamma)]


class ProductGroup(CompactGroup):
    """Direct product; elements and irrep labels are tuples over the factors."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = " x ".join(f.name for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def compose(self, a, b):
        return tuple(f.compose(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def random(self, rng):
        return tuple(f.random(rng) for f in self.factors)

    def irrep_labels(self, cutoff):
        labels = [[]]
        for f in self.factors:
            labels = [prefix + [w] for prefix in labels for w in f.irrep_labels(cutoff)]
        return [tuple(lab) for lab in labels]

    def irrep_dim(self, label):
        return int(np.prod([f.irrep_dim(w) for f, w in zip(self.factors, label)]))

    def validate_label(self, label):
        return (
            isinstance(label, tuple)
            and len(label) == len(self.factors)
            and all(f.validate_label(w) for f, w in zip(self.factors, label))
        )

    def char_band(self, label):
        return max(f.char_band(w) for f, w in zip(self.factors, label))

    def weights(self, label):
        """Tuples of factor weights, in the kron (C) order of ``irrep_table``."""
        return list(itertools.product(*(f.weights(w) for f, w in zip(self.factors, label))))

    def contragredient(self, label):
        """Factor by factor, with J the kron of the factors' in the C order of ``irrep_table``."""
        bars, Js = zip(*(f.contragredient(w) for f, w in zip(self.factors, label)))
        return tuple(bars), reduce(np.kron, Js)

    def irrep_table(self, label, params):
        tables = [f.irrep_table(w, p) for f, w, p in zip(self.factors, label, params)]
        out = tables[0]
        for t in tables[1:]:  # kron of the factor matrices, node by node
            n, (a, b), (c, d) = len(t), out.shape[1:], t.shape[1:]
            out = np.einsum("nab,ncd->nacbd", out, t).reshape(n, a * c, b * d)
        return out

    def params_of(self, elts):
        return tuple(f.params_of([e[i] for e in elts]) for i, f in enumerate(self.factors))

    def _quadrature(self, order):
        """Tensor rule in C order; ``params`` holds each factor's node-aligned params."""
        rules = [f.quadrature(order) for f in self.factors]
        idx = np.indices([len(r) for r in rules]).reshape(len(rules), -1)
        weights = np.prod([r.weights[i] for r, i in zip(rules, idx)], axis=0)
        params = tuple(_take(r.params, i) for r, i in zip(rules, idx))
        return QuadratureRule(self, order, weights, params)

    def _nodes_from_params(self, params):
        return list(zip(*(f._nodes_from_params(p) for f, p in zip(self.factors, params))))


_RULES = {}  # (group name, order) -> QuadratureRule
_SCHUR = {}  # (group name, label, row) -> (bar, S) of schur_sum


def _is_weight(x):
    """An integer, not a bool: True == 1 and 1.0 == 1, but neither is a weight."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _freeze(x):
    """Make the numpy arrays in a nest of tuples read-only; returns ``x``."""
    if isinstance(x, tuple):
        for item in x:
            _freeze(item)
    elif isinstance(x, np.ndarray):
        x.setflags(write=False)
    return x


def _take(params, idx):
    """The params of the elements ``idx``: an array, or a tuple of params."""
    if isinstance(params, tuple):
        return tuple(_take(p, idx) for p in params)
    return params[idx]
