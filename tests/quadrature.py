"""The quadrature route to operator entries, kept as the oracle of the closed forms.

``motionfields`` integrates nothing over K by nodes: Schur sums, Gaunt
integrals and weight counts are closed forms.  This module keeps the
normalized-Haar product rules and the node sums the closed forms replaced,
so tests can check them against an independent computation:

* ``quadrature(group, order)``: equispaced angles on SO(2) (order q: q
  nodes, exact up to band q - 1); equispaced alpha and gamma with
  Gauss-Legendre nodes in cos(beta) on SO(3) (exact for products of matrix
  coefficients of total band <= q); tensor rules in C order on products.
  One rule per (group name, order), with read-only arrays.
* ``coefficient_sums``: weighted node sums of a function on the rule
  against two irrep matrices, the A and B factors of an induced entry.
* ``proven_order``: the order that integrates every induced entry of f
  against K-types of band <= lam_band exactly.
* ``pi_entries``: the induced entries at one point with both factors by
  node sums, the orbit factor from ``pair.ad_orbit_table``, each basis
  copy by its intertwiner (``induction.intertwiners``).
* ``refuse_node_rules``: makes the numpy routines a node rule needs raise,
  for tests that check a path builds none.
"""

from dataclasses import dataclass

import numpy as np
import pointwise as pw

from motionfields.groups import CircleGroup, ProductGroup, RotationGroup3
from motionfields.induction import intertwiners


@dataclass(eq=False)
class QuadratureRule:
    """Nodes and positive weights realizing the normalized Haar integral.

    ``params`` holds the parameter arrays of the nodes in the form
    ``pointwise.irrep_table`` reads (angles, Euler triples, tuples of factor params);
    ``nodes`` are the group elements.
    """

    group: object
    order: int
    weights: np.ndarray
    params: object

    @property
    def nodes(self):
        return nodes_from_params(self.group, self.params)

    def __len__(self):
        return len(self.weights)


RULES = {}  # (group name, order) -> QuadratureRule


def quadrature(group, order):
    """The rule of ``order`` on ``group``, built once per (group name, order)."""
    if order < 1:
        raise ValueError("order must be positive")
    key = (group.name, int(order))
    if key not in RULES:
        weights, params = _rule(group, int(order))
        _freeze((weights, params))
        RULES[key] = QuadratureRule(group, int(order), weights, params)
    return RULES[key]


def _rule(group, q):
    """(weights, params) of the rule of order q."""
    if isinstance(group, ProductGroup):
        rules = [quadrature(f, q) for f in group.factors]
        idx = np.indices([len(r) for r in rules]).reshape(len(rules), -1)
        weights = np.prod([r.weights[i] for r, i in zip(rules, idx)], axis=0)
        return weights, tuple(_take(r.params, i) for r, i in zip(rules, idx))
    if isinstance(group, RotationGroup3):
        n_ang, n_beta = q + 1, q // 2 + 1
        ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
        xb, wb = np.polynomial.legendre.leggauss(n_beta)
        A, B, G = np.meshgrid(ang, np.arccos(xb), ang, indexing="ij")
        weights = np.broadcast_to(wb[None, :, None], A.shape) / (2.0 * n_ang * n_ang)
        return weights.ravel(), (A.ravel(), B.ravel(), G.ravel())
    if isinstance(group, CircleGroup):
        return np.full(q, 1.0 / q), 2.0 * np.pi * np.arange(q) / q
    return np.ones(1), np.zeros(1)  # the trivial group


def nodes_from_params(group, params):
    """The group elements of ``params``."""
    if isinstance(group, ProductGroup):
        return list(zip(*(nodes_from_params(f, p) for f, p in zip(group.factors, params))))
    if isinstance(group, RotationGroup3):
        return [pw.from_euler(a, b, g) for a, b, g in zip(*params)]
    if isinstance(group, CircleGroup):
        return [float(t) for t in params]
    return [()] * len(params)


def _take(params, idx):
    if isinstance(params, tuple):
        return tuple(_take(p, idx) for p in params)
    return params[idx]


def _freeze(x):
    if isinstance(x, tuple):
        for item in x:
            _freeze(item)
    else:
        x.setflags(write=False)


def coefficient_sums(group, rule, lams, requests):
    """Weighted node sums of products of two irrep matrices.

    For each request ``(g, label, row)``, with ``g`` a value per node of
    ``rule``, and each K-type ``lam`` in ``lams`` this is

        S[r, v, b] = sum_n w_n g_n tau_label(k_n)[row, r] tau_lam(k_n)[v, b].

    Returns one list of S arrays (in ``lams`` order) per request.
    """
    tabs = {}

    def table(lab):
        if lab not in tabs:
            tabs[lab] = pw.irrep_table(group, lab, rule.params)
        return tabs[lab]

    out = []
    for g, label, row in requests:
        u = (rule.weights * g)[:, None] * table(label)[:, row, :]  # (n, r)
        out.append([np.tensordot(u, table(lam), axes=(0, 0)) for lam in lams])
    return out


def proven_order(f, lam_band):
    """The order that integrates entries against K-types of band <= ``lam_band`` exactly.

    An entry integrand is u(k) tau_lam(k) g-hat(Ad(k)H), and g-hat(Ad(k)H)
    = C q(Ad(k)H) exp(-sigma^2 |H|^2 / 2), as Ad is orthogonal; q has the
    degree of g's polynomial, which bounds its K-band, and W = ``f.window``
    bounds band(u) + deg q.  A rule of order q is exact up to band q on
    SO(3), but only up to q - 1 on a circle factor (q nodes): hence the 1 +.
    """
    return 1 + lam_band + f.window


def pi_entries(f, pair, basis, H, rule):
    """Induced entries at H with both factors of every entry by node sums of ``rule``.

    A is the rule's sums of g-hat on the orbit at the term's row; B the
    rule's sums with g = 1 at its column, contracted against every basis
    column (the closed form of B is zero outside one block).
    """
    K = pair.K

    def factor(sums):
        return np.concatenate(
            [np.sqrt(K.irrep_dim(lam)) * (S @ T)
             for (lam, _), S in zip(basis.blocks, sums)
             for T in intertwiners(K, lam, basis.stab, basis.mu)],
            axis=1,
        )

    ad = pair.ad_orbit_table(rule, H)
    lams = [lam for lam, _ in basis.blocks]
    left = [(t.g.fourier(ad), t.u.label, t.u.row) for t in f.terms]
    right = list(dict.fromkeys((t.u.label, t.u.col) for t in f.terms))
    ones = np.ones(len(rule))
    sums = coefficient_sums(K, rule, lams, left + [(ones, lab, col) for lab, col in right])
    factors = [factor(s) for s in sums]
    B = dict(zip(right, (np.conj(x) for x in factors[len(left):])))
    M = np.zeros((basis.size, basis.size), dtype=complex)
    for term, A in zip(f.terms, factors):
        M += term.coeff * np.einsum("ria,rja->ij", A, B[(term.u.label, term.u.col)])
    return M


def refuse_node_rules(monkeypatch):
    """Make a Gauss-Legendre node set or an FFT, the makings of a node rule, an error.

    Build any oracle rule a test needs before calling this.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for name in ("fft", "fft2", "fftn"):
        monkeypatch.setattr(np.fft, name, refuse)
