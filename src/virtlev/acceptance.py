"""The ten-point acceptance battery, shared by pytest and the CLI `suite`.

Each criterion returns a CriterionResult with a PASS/FAIL flag and a detail
string carrying the measured numbers at the stated tolerances; run_all
records the wall time of each criterion it runs.  Nothing here
tunes itself: tolerances are hard-coded to the contract values.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from . import criticality as cr
from . import discrete_ops as do
from . import jost
from . import lap_sweep as ls
from . import perturbation as pt
from .errors import ConfigError, SamplingFailure
from .free_resolvent import (SpectralParameter, build_free_kernel_operator,
                             kernel_1d, kernel_2d, kernel_3d)
from .reports import Classification
from .weighted_space import (Grid1D, KernelOperator, RadialGrid, operator_norm_weighted,
                             second_difference, zero_potential)

SWEEP_RADII = tuple(1e-2 * 10 ** (-0.5 * k) for k in range(7))  # 1e-2 .. 1e-5
SUITE_RADII = tuple(3e-2 * 10 ** (-0.5 * k) for k in range(7))  # 3e-2 .. 3e-5


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    artifacts: dict | None = None
    runtime: float | None = None  # wall seconds, measured by run_all

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.details}"


def criterion_1() -> CriterionResult:
    """Free 1D resolvent norms diverge like r^-1/2 in L2_2 -> L2_-2."""
    op = ls.OperatorSpec.free1d(Grid1D(20.0, 4001))
    cfg = ls.SweepConfig(z0=0.0, angle=np.pi, radii=SWEEP_RADII, s=2.0, sp=2.0)
    res = ls.sweep(op, cfg)
    alpha, r2 = ls.fit_exponent(res)
    ok = 0.45 <= alpha <= 0.55 and r2 >= 0.99 and res.aborted is None
    return CriterionResult(
        1, "1D threshold divergence", bool(ok),
        f"alpha={alpha:.4f} (need [0.45,0.55]), r2={r2:.5f} (need >=0.99)",
        {"sweep_1d.csv": ls.sweep_csv(res)})


def criterion_2() -> CriterionResult:
    """Radial 3D free resolvent at s = s' = 1.1 over the same radii window.

    The stated tolerances (<=5% variation, alpha <= 0.05 at radii 1e-5..1e-2)
    are not attainable for this operator: with s' < 3/2 the first threshold
    correction term is unbounded between these weighted spaces, the norm
    approaches its limit only like |z|^0.1, and the continuum variation over
    the window is ~80% (verified against grids up to R = 5000).  The check
    is run verbatim and reported honestly; the facts that do hold here
    (uniform boundedness and monotone approach to a finite limit) are
    measured alongside.
    """
    op = ls.OperatorSpec.free3d_radial(RadialGrid(30.0, 3000))
    cfg = ls.SweepConfig(z0=0.0, angle=np.pi, radii=SWEEP_RADII, s=1.1, sp=1.1)
    res = ls.sweep(op, cfg)
    norms = res.norms()
    alpha, _ = ls.fit_exponent(res)
    variation = float((norms.max() - norms.min()) / norms.min())
    bounded_and_monotone = bool(np.all(np.diff(norms) > 0) and norms.max() < 10.0)
    ok = variation <= 0.05 and alpha <= 0.05 and res.aborted is None
    return CriterionResult(
        2, "3D threshold regularity", bool(ok),
        f"variation={100 * variation:.1f}% (need <=5%), alpha={alpha:.4f} "
        f"(need <=0.05); boundedness+monotone approach to a limit: "
        f"{bounded_and_monotone}",
        {"sweep_3d.csv": ls.sweep_csv(res)})


def criterion_3() -> CriterionResult:
    """Square-well bifurcation law E = -g^2 + O(g^3)."""
    gs = [0.04, 0.02, 0.01, 0.005]
    curve = pt.square_well_curve(gs)
    ratios = np.abs(curve.energies / (-curve.couplings**2) - 1.0)
    ratio_ok = bool(np.all(ratios <= 3.0 * curve.couplings))
    slope = curve.loglog_slope()
    slope_ok = abs(slope - 2.0) <= 0.05
    return CriterionResult(
        3, "square-well bifurcation law", bool(ratio_ok and slope_ok),
        f"max |E/(-g^2)-1| / (3g) = {np.max(ratios / (3 * curve.couplings)):.3f} "
        f"(need <=1), slope={slope:.4f} (need 2 +- 0.05)",
        {"bifurcation.csv": pt.bifurcation_csv(curve)})


def _suite_potentials(grid: Grid1D):
    """>= 10 potentials, complex-valued ones included, with expected verdicts."""
    gstar = np.pi**2 / 4.0

    def resonant(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < 1.0
        xx = np.where(inside, x, 0.0)
        s = 1.0 - xx * xx
        b = np.exp(1.0 - 1.0 / s)
        bpp = b * (4 * xx**2 / s**4 - 2 / s**2 - 8 * xx**2 / s**3)
        return np.where(inside, bpp / (1.0 + b), 0.0)

    def triangle(x):
        return 0.7 * np.clip(1.0 - np.abs(np.asarray(x, dtype=float)), 0.0, None)

    return [
        ("zero", jost.Potential1D(1.0, zero_potential, grid),
         Classification.VIRTUAL),
        ("barrier", jost.Potential1D.square_well(-1.0, grid), Classification.REGULAR),
        ("well g=0.5", jost.Potential1D.square_well(0.5, grid), Classification.REGULAR),
        ("critical well", jost.Potential1D.square_well(gstar, grid), Classification.VIRTUAL),
        ("well g=4", jost.Potential1D.square_well(4.0, grid), Classification.REGULAR),
        ("bump", jost.Potential1D.bump(grid), Classification.REGULAR),
        ("complex bump", jost.Potential1D.bump(grid, amplitude=0.5 + 0.5j),
         Classification.REGULAR),
        ("complex well", jost.Potential1D.square_well(1.0 + 1.0j, grid),
         Classification.REGULAR),
        ("resonant", jost.Potential1D(1.0, resonant, grid), Classification.VIRTUAL),
        ("shifted well", jost.Potential1D.square_well(0.5, grid, center=3.0),
         Classification.REGULAR),
        ("triangle", jost.Potential1D(1.0, triangle, grid), Classification.REGULAR),
    ]


def criterion_4() -> CriterionResult:
    """Wronskian dichotomy and agreement of the two classifiers."""
    fine = Grid1D(16.0, 6401)
    pair0 = jost.jost_pair(jost.Potential1D(1.0, zero_potential, fine))
    w0_ok = abs(pair0.wronskian) <= 1e-8
    pair1 = jost.jost_pair(jost.Potential1D.square_well(-1.0, fine))
    w1_err = abs(pair1.wronskian - np.sinh(2.0)) / np.sinh(2.0)
    w1_ok = w1_err <= 1e-6
    sweep_grid = Grid1D(16.0, 3201)
    disagreements = []
    for name, pot, expected in _suite_potentials(fine):
        jrep = jost.classify_threshold_1d(pot)
        sweep_pot = jost.Potential1D(pot.support_radius, pot.func, sweep_grid)
        cfg = ls.SweepConfig(z0=0.0, angle=np.pi / 2, radii=SUITE_RADII, s=2.0, sp=2.0)
        lrep = ls.classify(ls.OperatorSpec.schrodinger1d(sweep_pot), cfg)
        if not (jrep.classification is lrep.classification is expected):
            disagreements.append(
                f"{name}: jost={jrep.classification.value} "
                f"lap={lrep.classification.value} expected={expected.value}")
    ok = w0_ok and w1_ok and not disagreements
    detail = (f"|W(0)|={abs(pair0.wronskian):.2e} (need <=1e-8), "
              f"|W-sinh2|/sinh2={w1_err:.2e} (need <=1e-6), "
              f"agreement on {11 - len(disagreements)}/11 potentials")
    if disagreements:
        detail += "; disagreements: " + "; ".join(disagreements)
    return CriterionResult(4, "Wronskian dichotomy", bool(ok), detail)


def criterion_5() -> CriterionResult:
    """Rank-one regularization of the 1D threshold."""
    rep = pt.rank_one_regularized_threshold()
    det_n = rep.diagnostics["matching_det_normalized"]
    det_ok = abs(det_n) > 0.1
    perturbed_ok = rep.classification is Classification.REGULAR and rep.alpha <= 0.1
    free_ok = rep.diagnostics["free_classification"] == "virtual"
    states = rep.diagnostics.get("free_states")
    dev = np.inf
    if states:
        s = states[0]
        quarter = len(s) // 4
        dev = float(np.max(np.abs(s[quarter: 3 * quarter + 1] - 1.0)))
    state_ok = dev <= 0.05
    ok = det_ok and perturbed_ok and free_ok and state_ok
    return CriterionResult(
        5, "rank-one regularization", bool(ok),
        f"|det|={abs(det_n):.4f} (need >0.1), perturbed alpha={rep.alpha:.4f} "
        f"(need <=0.1), free verdict virtual={free_ok}, "
        f"state dev={dev:.4f} (need <=0.05)")


def criterion_6() -> CriterionResult:
    """Shift operator: uniform resolvent bound and manufactured virtual states."""
    rng = np.random.default_rng(20210922)
    worst = 0.0
    for _ in range(100):
        z = (1.0 + 9.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        m = do.truncated_resolvent_matrix(z, 256)
        worst = max(worst, float(np.max(np.abs(m))))
    bound_ok = worst <= 1.0 + 1e-12
    phis = [do.sequence([1.0]),
            do.sequence([1.0, 0.5, 0.25]),
            do.sequence([0.3 - 0.2j, 0.0, 0.7j])]
    worst_resid = 0.0
    for z0 in (1.0, 1j, np.exp(1j * np.pi / 4)):
        for phi in phis:
            lvl = do.build_shift_virtual_level(z0, phi)
            worst_resid = max(worst_resid, lvl.residual)
    resid_ok = worst_resid <= 1e-10
    ok = bound_ok and resid_ok
    return CriterionResult(
        6, "shift operator", bool(ok),
        f"max l1->linf norm={worst:.15f} (need <=1+1e-12), "
        f"max residual={worst_resid:.2e} (need <=1e-10)")


def criterion_7() -> CriterionResult:
    """Embedded eigenvalue family and divergence at the limit point."""
    details = []
    ok = True
    artifacts = {}
    for zeta0 in (0.0, 1.0):
        fam = pt.embedded_family_check(zeta0)
        res_ok = fam.residual_max <= 1e-6
        decades = max(fam.sweep_result.radii()) / min(fam.sweep_result.radii())
        growth_ok = fam.monotone_growth and decades >= 1e3 * (1 - 1e-9)
        ok = ok and res_ok and growth_ok
        details.append(f"zeta0={zeta0:g}: resid={fam.residual_max:.2e} "
                       f"(need <=1e-6), monotone growth={fam.monotone_growth}")
        artifacts[f"embedded_family_zeta{zeta0:g}.csv"] = pt.embedded_csv(fam)
        artifacts[f"embedded_sweep_zeta{zeta0:g}.csv"] = ls.sweep_csv(fam.sweep_result)
    return CriterionResult(
        7, "embedded eigenvalue family", bool(ok), "; ".join(details),
        artifacts)


def criterion_8() -> CriterionResult:
    """Criticality dichotomy with R-doubling stability and cross-consistency."""
    free = cr.QuadraticForm.free_line(320.0, 12801)
    r1 = cr.null_state_iteration(free)
    win = np.abs(free.grid.points) <= 1.0
    dev = np.inf if r1.phi is None else float(np.max(np.abs(r1.phi[win] - 1.0)))
    null_ok = r1.verdict is cr.Dichotomy.NULL_STATE and dev <= 0.05
    r3 = cr.null_state_iteration(cr.QuadraticForm(RadialGrid(320.0, 12800)))
    gap_ok = (r3.verdict is cr.Dichotomy.WEIGHTED_GAP and r3.margin is not None
              and r3.margin > 0)
    stable_ok = (r1.diagnostics.get("doubled_verdict") == "null_state"
                 and r3.diagnostics.get("doubled_verdict") == "weighted_gap")

    # cross-consistency with the criterion-4 suite on shared potentials
    grid = Grid1D(16.0, 6401)
    cross_ok = True
    notes = []
    for name, pot, expected in _suite_potentials(grid):
        if name not in ("zero", "bump", "resonant"):
            continue
        form = cr.QuadraticForm(Grid1D(320.0, 12801), pot.sample)
        rr = cr.null_state_iteration(form, conv_tol=0.05)
        want = (cr.Dichotomy.NULL_STATE if expected is Classification.VIRTUAL
                else cr.Dichotomy.WEIGHTED_GAP)
        agree = rr.verdict is want
        cross_ok = cross_ok and agree
        notes.append(f"{name}:{rr.verdict.value}{'' if agree else '(!)'}")
    ok = null_ok and gap_ok and stable_ok and cross_ok
    return CriterionResult(
        8, "criticality dichotomy", bool(ok),
        f"1D null-state dev={dev:.4f} (need <=0.05), 3D margin="
        f"{r3.margin if r3.margin is not None else float('nan'):.3e} (need >0), "
        f"stable={stable_ok}, cross: {', '.join(notes)}",
        {"null_state_trace.csv": cr.trace_csv(r1)})


def criterion_9() -> CriterionResult:
    """Matrix nullity by random perturbations vs planted SVD nullity.

    Planted spectra are normalized (sigma_max = 1, nonzero sigma in
    [0.6, 1]): the determinant signal of a rank-3 repair scales like the
    cube of the 1e-3 perturbation size, and wilder spectra would push it
    under the 1e-12 detection threshold.  A marginal draw is retried once
    with more trials, as the sampling-failure contract prescribes.
    """
    rng = np.random.default_rng(424242)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(4, 9))
        nullity = trial % 4
        sing = np.concatenate([0.6 + 0.4 * rng.random(n - nullity), np.zeros(nullity)])
        sing[0] = 1.0
        qu, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = qu @ np.diag(sing) @ qv.conj().T
        try:
            got = pt.matrix_nullity_by_perturbation(m, trials=128, rng_seed=trial)
        except SamplingFailure:
            try:
                got = pt.matrix_nullity_by_perturbation(m, trials=512,
                                                        rng_seed=trial + 1000)
            except SamplingFailure:
                failures += 1
                continue
        if got != nullity:
            failures += 1
    jordan = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    jordan_ok = pt.matrix_nullity_by_perturbation(jordan) == 1
    ok = failures == 0 and jordan_ok
    return CriterionResult(
        9, "matrix nullity", bool(ok),
        f"agreement on {100 - failures}/100 planted matrices, "
        f"Jordan block -> {'1' if jordan_ok else 'wrong'}")


def criterion_10() -> CriterionResult:
    """Numerical hygiene: inverse residuals, adjoint symmetry, kernel
    identities, determinism of emitted tables."""
    notes = []
    ok = True

    # left/right inverse residuals, O(h^2) certified by halving h
    errs = {}
    for n in (2001, 4001):
        grid = Grid1D(10.0, n)
        x = grid.points
        h, inner = grid.spacing, grid.interior
        f = np.exp(-(x**2))
        K = build_free_kernel_operator(1, grid, SpectralParameter.interior(-1.0))
        u = K.apply(f)
        resid_left = (second_difference(u, h)[inner] + 1.0 * u[inner]) - f[inner]
        smooth = np.exp(-(x**2))
        rhs = second_difference(smooth, h)[inner] + smooth[inner]
        recon = K.apply(np.concatenate([[rhs[0]], rhs, [rhs[-1]]]))
        resid_right = recon[inner] - smooth[inner]
        errs[n] = (float(np.max(np.abs(resid_left))), float(np.max(np.abs(resid_right))))
    left_ratio = errs[2001][0] / max(errs[4001][0], 1e-300)
    right_ratio = errs[2001][1] / max(errs[4001][1], 1e-300)
    inv_ok = left_ratio > 3.0 and right_ratio > 3.0 and errs[4001][0] < 1e-3
    ok = ok and inv_ok
    notes.append(f"inverse-residual h-ratios {left_ratio:.2f}/{right_ratio:.2f} (need >3)")

    # adjoint weighted-norm symmetry to 1e-10
    rng = np.random.default_rng(7)
    grid = Grid1D(8.0, 161)
    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((161, 161)) + 1j * rng.standard_normal((161, 161))
        k = KernelOperator(grid, grid, m)
        kh = KernelOperator(grid, grid, m.conj().T)
        s, sp_ = 2.0 * rng.random(), 2.0 * rng.random()
        a = operator_norm_weighted(k, s, sp_)
        b = operator_norm_weighted(kh, sp_, s)
        worst = max(worst, abs(a - b) / a)
    adjoint_ok = worst <= 1e-10
    ok = ok and adjoint_ok
    notes.append(f"adjoint symmetry rel dev={worst:.2e} (need <=1e-10)")

    # kernel symmetry and conjugation identities on random samples
    sym_worst = conj_worst = 0.0
    for _ in range(50):
        x, y = 10 * rng.random() - 5, 10 * rng.random() - 5
        z = complex(2 * rng.random() - 3, 2 * rng.random() - 1 + 0.1)
        p = SpectralParameter.interior(z)
        pc = SpectralParameter.interior(np.conj(z))
        k1 = kernel_1d(x, y, p)
        sym_worst = max(sym_worst, abs(k1 - kernel_1d(y, x, p)) / abs(k1))
        conj_worst = max(conj_worst, abs(np.conj(k1) - kernel_1d(x, y, pc)) / abs(k1))
        r = 0.1 + 5 * rng.random()
        k3 = kernel_3d(r, p)
        conj_worst = max(conj_worst, abs(np.conj(k3) - kernel_3d(r, pc)) / abs(k3))
        k2 = kernel_2d(r, p)
        conj_worst = max(conj_worst, abs(np.conj(k2) - kernel_2d(r, pc)) / abs(k2))
    kernel_ok = sym_worst <= 1e-12 and conj_worst <= 1e-12
    ok = ok and kernel_ok
    notes.append(f"kernel symmetry/conjugation dev={max(sym_worst, conj_worst):.2e}")

    # determinism of emitted tables across two runs
    def emit() -> str:
        op = ls.OperatorSpec.free1d(Grid1D(20.0, 4001))
        cfg = ls.SweepConfig(z0=0.0, angle=np.pi, radii=SUITE_RADII, s=2.0, sp=2.0)
        buf = io.StringIO()
        buf.write(ls.sweep_csv(ls.sweep(op, cfg)))
        buf.write(pt.bifurcation_csv(pt.square_well_curve([0.04, 0.02, 0.01, 0.005])))
        return buf.getvalue()

    det_ok = emit() == emit()
    ok = ok and det_ok
    notes.append(f"deterministic output={det_ok}")
    return CriterionResult(10, "numerical hygiene", bool(ok), "; ".join(notes))


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(only=None):
    """Run the criteria numbered in `only` (all of them when it is empty)."""
    outside = sorted(set(only or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if outside:
        raise ConfigError(f"criterion numbers outside 1..{len(ALL_CRITERIA)}: {outside}")
    results = []
    for k, fn in enumerate(ALL_CRITERIA, start=1):
        if only and k not in only:
            continue
        t0 = time.perf_counter()
        res = fn()
        res.runtime = time.perf_counter() - t0
        results.append(res)
    return results
