"""Null-state / weighted-spectral-gap dichotomy for nonnegative forms.

For a nonnegative Schrödinger form a[u] = int(|u'|^2 + V |u|^2) either some
positive weight w has int w |u|^2 <= a[u] (subcritical: weighted spectral
gap) or compactly supported arbitrarily small negative perturbations produce
negative eigenvalues whose sup-normalized ground states converge on compacts
to a positive generalized zero-energy solution (critical: null state).

The construction follows the perturbation route: W_j = (1/j) 1_{|x| <= K},
smallest eigenpair of H - W_j per j, Cauchy convergence of the normalized
eigenfunctions on the compact window.  The weighted gap uses the
one-parameter family w = c <x>^{-4}: the largest admissible c is the bottom
c* of the pencil (T, diag <x>^{-4}), one symmetric tridiagonal eigenvalue,
and half of it is reported so the margin is strictly positive.

A form is a grid and one real potential sampler.  All forms are Dirichlet
truncations on uniform grids, whose `interior` and `doubled()` grid live in
weighted_space; verdicts are re-checked under doubling of the radius.

Only eigen-solves whose results reach an output run.  A form is accepted as
nonnegative without a solve when its Gershgorin lower bound clears the
threshold by more than LAPACK's bisection error (`_gershgorin_and_error`).
The radius-doubled re-check reports only its verdict, so it decides the last
j first.  A non-binding last j means the weighted-gap branch, which needs
only the critical coupling c* (it may raise).  A last j binding by more than
the bisection error binds every earlier j too, and the verdict needs only
the Cauchy increment between the last two j.  In the band between, the full
construction runs.

Where a check reads only the sign of lambda_min - t, a Sturm count replaces
the solve (`_count_clears`): dstebz with RANGE = 'V' counts the eigenvalues
at or below x, and a count of 0 at x = t + delta stands for a solve that
returns at least t.  Where the count is not 0 the solve runs as before, so
every printed value and refusal is the solve's.  Why a count of 0 suffices:

1. Monotone counts.  The count N(sigma) that dstebz computes is monotone in
   the shift sigma in IEEE arithmetic (Demmel, Dhillon & Ren, ETNA 3, 1995),
   and the solve keeps a bracket [a, b] of the bottom with N(a) = 0 and
   N(b) >= 1 and returns its midpoint.  So N(x) = 0 puts b above x.
2. delta bounds dstebz's bracket.  At tol = 0 the solve stops once b - a is
   below ulp ||T||_1 (plus pivmin), well inside delta, so it returns more
   than x - delta = t.  A count at t alone would not do.
3. The same bands and pivmin in RANGE 'V' and 'I'.  dstebz splits T and
   sets pivmin from d and e before it reads RANGE, and its end counts (RANGE
   'V') and bisection counts (RANGE 'I') run the same recurrence, apart from
   a pivot exactly equal to pivmin.  So the count is the solve's own count
   at x, provided it reads the very bands the solve reads.
4. Sylvester inertia for the pencil.  c* is the bottom of S T S, S =
   diag(weight)^{-1/2} (`_pencil`), congruent to T.  The solve
   bisects it to relative precision (tol = tiny), and a bracket straddling 0
   never meets the relative stopping rule 2 ulp max(|a|, |b|), only the
   absolute pivmin, so a count of 0 at x = 0 on those bands gives c* > 0
   unless |c*| < pivmin.  No delta is needed there: a count at shift 0
   subtracts nothing, so its error is a few ulps relative in each entry,
   which the congruence carries to T unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .errors import ConfigError, InvalidOperator
from .reports import csv_table
from .weighted_space import (Grid1D, RadialGrid, cell_average, cell_indicator,
                             second_difference, weight, zero_potential)

_BINDING = -1e-12  # W_j binds below this lambda_min: an absolute round-off margin
_NONNEGATIVE = -1e-10  # the form is nonnegative at or above this lambda_min: likewise


def _gershgorin_and_error(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Gershgorin lower bound L of T = tridiag(e, d, e), and a bound delta on
    the error of any eigenvalue LAPACK's dstebz computes for T at tol = 0,
    plus the rounding of L itself.

    The exact bottom of T is at least L = min_i (d_i - |e_{i-1}| - |e_i|).
    With ulp = 2^-52 and pivmin = tiny * max(1, max e_i^2) (dstebz's own
    constants), to first order in ulp:

    - dstebz stops when its interval is narrower than max(ulp ||T||_1, pivmin,
      2 ulp |lambda|), and |lambda| <= ||T||_1, so the midpoint it returns is
      within ulp ||T||_1 + pivmin of the interval's eigenvalue;
    - each Sturm count is exact for a T' with |T' - T| <= ulp ||T||_1 + 2 pivmin
      in norm: one rounding of each d_i, 2 eps relative in each e_i, pivots
      clamped at -pivmin (Kahan, "Accurate eigenvalues of a symmetric
      tridiagonal matrix", 1966);
    - splitting drops each e_i with e_i^2 <= ulp^2 |d_i d_{i-1}| + pivmin, at
      most 2 ulp ||T||_1 + 2 sqrt(pivmin) in norm;
    - L's two roundings move it by at most ulp ||T||_1.

    That is 5 ulp ||T||_1 + 5 sqrt(pivmin) (pivmin < 1 because |e| = 1/h^2 <
    1e150); delta doubles it, delta = 10 ulp ||T||_1 + 10 sqrt(pivmin).  A
    non-finite entry makes L or delta nan or infinite, which certifies nothing.
    """
    off = np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])
    norm = float(np.max(np.abs(d) + off))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(np.square(e), initial=0.0)))
    delta = 10.0 * np.finfo(float).eps * norm + 10.0 * np.sqrt(pivmin)
    return float(np.min(d - off)), delta


def _count_clears(d: np.ndarray, e: np.ndarray, x: float) -> bool:
    """True when the Gershgorin bound or one Sturm count shows that
    tridiag(e, d, e) has no eigenvalue at or below x; False where it has one
    or a band entry is not finite.

    dstebz with RANGE = 'V' counts the eigenvalues in (vl, x].  vl, the
    Gershgorin bound less delta, lies below every eigenvalue and every
    count's error, so that is the count at or below x.  An abstol of x - vl
    covers the whole interval: dstebz takes the end counts and one midpoint
    count, and bisects no further.
    """
    lower, delta = _gershgorin_and_error(d, e)
    vl = lower - delta
    if not np.isfinite(vl):
        return False
    if lower >= x:  # every eigenvalue lies above x: no count needed
        return True
    m, _, _, _, info = lapack.dstebz(d, e, 1, vl, x, 0, 0, x - vl, "E")
    return info == 0 and m == 0


def _pencil(d: np.ndarray, e: np.ndarray, w: np.ndarray):
    """Bands of S T S, T = tridiag(e, d, e), S = diag(w)^{-1/2}: the pencil
    (T, diag w) that the weighted solve bisects and its count reads."""
    s = 1.0 / np.sqrt(w)
    return d * s * s, e * s[:-1] * s[1:]


@dataclass(frozen=True)
class QuadraticForm:
    """Discrete form a[u] = h sum |du/h|^2 + h sum V u^2 with Dirichlet edges.

    V is the cell average `v` of the real potential `sampler` on `grid`.  The
    unknowns sit on `grid.interior`: a line is Dirichlet at both ends, a
    half-line at r = 0 (implicitly) and at r = R.
    """

    grid: Grid1D | RadialGrid
    sampler: Callable = field(default=zero_potential, repr=False)

    def __post_init__(self):
        # 1/h^2 and the weight <x>^-4 (every |x| < n h) stay normal floats
        h, extent = self.grid.spacing, self.grid.spacing * self.grid.n_points
        if not (h > 1e-75 and extent < 1e75):
            raise ConfigError(f"grid spacing {h:.3g} and extent {extent:.3g} must lie in "
                              "(1e-75, 1e75)")
        d, e = self.tridiagonal()
        if _count_clears(d, e, _NONNEGATIVE + _gershgorin_and_error(d, e)[1]):
            return  # the eigen-solve below would give at least _NONNEGATIVE
        lam = self.smallest_eigenvalue()
        if lam < _NONNEGATIVE:
            raise InvalidOperator(
                f"form is not nonnegative: smallest eigenvalue {lam:.3g}"
            )

    @cached_property
    def v(self) -> np.ndarray:
        """The real part of `cell_average`.  At each Gauss node in turn, the
        samples of `sampler` must have no imaginary part above 1e-14 max(1,
        their largest modulus): imaginary parts that cancel in a cell's
        average are still refused."""
        def real_samples(t):
            sampled = np.asarray(self.sampler(t), dtype=complex)
            if np.max(np.abs(sampled.imag)) > 1e-14 * max(1.0, np.max(np.abs(sampled))):
                raise InvalidOperator("criticality analysis requires a real potential")
            return sampled

        return cell_average(real_samples, self.grid).real

    def tridiagonal(self, extra_potential: np.ndarray | None = None):
        h = self.grid.spacing
        v = self.v if extra_potential is None else self.v + extra_potential
        d = 2.0 / h**2 + v[self.grid.interior]
        return d, np.full(d.size - 1, -1.0 / h**2)

    def smallest_eigenpair(self, extra_potential: np.ndarray | None = None):
        d, e = self.tridiagonal(extra_potential)
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        psi = np.zeros(self.grid.n_points)
        psi[self.grid.interior] = vecs[:, 0]
        psi = psi * np.sign(psi[np.argmax(np.abs(psi))])
        return float(vals[0]), psi / np.max(np.abs(psi))

    def smallest_eigenvalue(self, extra_potential: np.ndarray | None = None,
                            weight: np.ndarray | None = None) -> float:
        """Bottom of T + diag(extra_potential) or, given a positive `weight`,
        of the pencil (T + diag(extra_potential), diag(weight)).

        The pencil is the symmetrically scaled tridiagonal S T S with
        S = diag(weight)^{-1/2}.  Its 1-norm grows with the scaling (about
        1e12 for <x>^{-4} at R = 160), so LAPACK's default absolute
        tolerance eps ||S T S||_1 would swamp the small bottom eigenvalue;
        the pencil is bisected to full relative precision instead.
        """
        d, e = self.tridiagonal(extra_potential)
        tol = 0.0  # LAPACK default
        if weight is not None:
            d, e = _pencil(d, e, weight[self.grid.interior])
            tol = np.finfo(float).tiny
        vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                eigvals_only=True, tol=tol)
        return float(vals[0])

    @staticmethod
    def free_line(half_width: float, n_points: int) -> "QuadraticForm":
        return QuadraticForm(Grid1D(half_width, n_points))


class Dichotomy(enum.Enum):
    NULL_STATE = "null_state"
    WEIGHTED_GAP = "weighted_gap"
    INCONCLUSIVE = "inconclusive"


@dataclass
class DichotomyResult:
    verdict: Dichotomy
    phi: np.ndarray | None = None
    weight_coefficient: float | None = None
    margin: float | None = None
    residual: float | None = None
    trace: list = field(default_factory=list)  # rows (j, lambda_j, sup_dist_to_limit)
    diagnostics: dict = field(default_factory=dict)


def _critical_coupling(form: QuadraticForm, base: np.ndarray) -> float:
    """c* = bottom of the pencil (T, diag base); raises unless it is positive."""
    c_star = form.smallest_eigenvalue(weight=base)
    if not 0.0 < c_star < np.inf:
        raise InvalidOperator(f"no positive weighted gap: critical coupling {c_star:.3g}")
    return c_star


def _weighted_gap_search(form: QuadraticForm) -> tuple[float, float]:
    """Largest c with H - c <x>^{-4} nonnegative, halved for a positive margin.

    That c is c* = lambda_min(B^{-1/2} T B^{-1/2}) with B = diag <x>^{-4},
    the bottom of the pencil (T, B), found in one eigen-solve.  Returns
    c = c*/2 and the margin lambda_min(T - c B).
    """
    base = weight(form.grid.points, -4.0)
    c = 0.5 * _critical_coupling(form, base)
    return c, form.smallest_eigenvalue(-c * base)


def null_state_iteration(form: QuadraticForm, compact_radius: float = 1.0,
                         j_max: int = 64, conv_tol: float = 0.02) -> DichotomyResult:
    """Dichotomy by compact negative perturbations W_j = (1/j) 1_{|x| <= K}.

    All sampled j trigger a negative eigenvalue -> the sup-normalized ground
    states must converge on |x| <= K and their limit is the null state; any
    j failing to bind sends the search to the weighted-gap branch.  The
    verdict is re-derived on a radius-doubled grid (`_doubled_verdict`, which
    solves only what that verdict reads), and a disagreement downgrades it
    to Inconclusive.
    """
    if j_max < 1:
        raise ConfigError(f"j_max = {j_max} must be at least 1")
    if not 0.0 < compact_radius < np.inf:
        raise ConfigError(f"compact_radius = {compact_radius} must be finite and positive")
    result = _dichotomy_once(form, compact_radius, j_max, conv_tol)
    if result.verdict is not Dichotomy.INCONCLUSIVE:
        again = _doubled_verdict(QuadraticForm(form.grid.doubled(), form.sampler),
                                 compact_radius, j_max, conv_tol)
        result.diagnostics["doubled_verdict"] = again.value
        if again is not result.verdict:
            return DichotomyResult(
                Dichotomy.INCONCLUSIVE, trace=result.trace,
                diagnostics={"reason": "verdict unstable under radius doubling",
                             "base": result.verdict.value,
                             "doubled": again.value})
    return result


def _doubled_verdict(form: QuadraticForm, compact_radius: float, j_max: int,
                     conv_tol: float) -> Dichotomy:
    """`_dichotomy_once(form, ...).verdict`, raising where it raises, from
    the eigen-solves that verdict reads.

    j_last, the largest power of two <= j_max, is the loop's last j, and
    W_j = W_1 / j rounds to a diagonal that is entrywise no larger for every
    earlier j, so lambda_min(T - W_j) <= lambda_min(T - W_last) exactly.
    A computed lambda_last >= _BINDING means the loop reaches the weighted-gap
    branch at or before j_last, whose verdict needs only c*.  A computed
    lambda_last below _BINDING by more than two bisection errors means every j
    binds, and the verdict needs only the last Cauchy increment.  Otherwise
    the full loop decides.

    The weighted-gap branch reads two signs, so counts decide it where they
    can (module docstring, points 1-4).  No eigenvalue of T - W_last at or
    below _BINDING + delta means the solve would return lambda_last >= _BINDING;
    delta here bounds the bands of every j, at least those of j_last.  No
    eigenvalue of the pencil bands at or below 0 means c* > 0, where
    `_critical_coupling` cannot raise.  A count that is not 0 leaves the
    solve to decide, as before.
    """
    window = np.abs(form.grid.points) <= compact_radius
    indicator = cell_indicator(form.grid, compact_radius)
    j_last = 1
    while 2 * j_last <= j_max:
        j_last *= 2
    # one error bound for every T - W_j: each diagonal lies between j = 1's and j_last's
    d_last, e = form.tridiagonal(-(indicator / j_last))
    d_first, _ = form.tridiagonal(-indicator)
    _, delta = _gershgorin_and_error(np.maximum(np.abs(d_first), np.abs(d_last)), e)
    certified = _count_clears(d_last, e, _BINDING + delta)
    if not certified:
        lam, psi = form.smallest_eigenpair(extra_potential=-(indicator / j_last))
    if certified or lam >= _BINDING:
        base = weight(form.grid.points, -4.0)
        pencil = _pencil(*form.tridiagonal(), base[form.grid.interior])
        if not _count_clears(*pencil, 0.0):
            _critical_coupling(form, base)
        return Dichotomy.WEIGHTED_GAP
    if j_last == 1:  # no earlier j and no increment
        return Dichotomy.INCONCLUSIVE
    if lam < _BINDING - 2.0 * delta:
        _, prev = form.smallest_eigenpair(extra_potential=-(indicator / (j_last // 2)))
        increment = float(np.max(np.abs((psi - prev)[window])))
        return Dichotomy.NULL_STATE if increment <= conv_tol else Dichotomy.INCONCLUSIVE
    return _dichotomy_once(form, compact_radius, j_max, conv_tol).verdict


def _dichotomy_once(form: QuadraticForm, compact_radius: float, j_max: int,
                    conv_tol: float) -> DichotomyResult:
    window = np.abs(form.grid.points) <= compact_radius
    indicator = cell_indicator(form.grid, compact_radius)  # W_1
    js, lams, states = [], [], []
    j = 1
    while j <= j_max:
        lam, psi = form.smallest_eigenpair(extra_potential=-(indicator / j))
        js.append(j)
        lams.append(lam)
        states.append(psi)
        if lam >= _BINDING:
            c, margin = _weighted_gap_search(form)
            trace = [(jj, ll, np.nan) for jj, ll in zip(js, lams)]
            return DichotomyResult(Dichotomy.WEIGHTED_GAP, weight_coefficient=c,
                                   margin=margin, trace=trace,
                                   diagnostics={"first_nonbinding_j": j})
        j *= 2
    dists = [float(np.max(np.abs((states[i] - states[i - 1])[window])))
             for i in range(1, len(states))]
    phi = states[-1]
    trace = [(jj, ll, float(np.max(np.abs((st - phi)[window]))))
             for jj, ll, st in zip(js, lams, states)]
    if dists and dists[-1] <= conv_tol:
        hphi = second_difference(phi, form.grid.spacing) + form.v * phi
        residual = float(np.max(np.abs(hphi[window])))
        return DichotomyResult(Dichotomy.NULL_STATE, phi=phi, residual=residual,
                               trace=trace,
                               diagnostics={"final_increment": dists[-1]})
    return DichotomyResult(Dichotomy.INCONCLUSIVE, trace=trace,
                           diagnostics={"reason": "no Cauchy convergence",
                                        "increments": dists})


def trace_csv(result: DichotomyResult) -> str:
    return csv_table(["j", "lambda", "sup_dist_to_limit"], result.trace)
