"""Seeded item lists of the benchmark's three workloads.

An item is one call to a public entry point of virtlev.  Where a subcommand
can express the input, the item is a ``virtlev`` argument vector run through
``virtlev.cli.main``; otherwise it names the library function and its
arguments.  Generation is pure data (no virtlev import), so the same seed
always gives the same JSON-serialisable list.

Every family draws only cases whose expected result the acceptance battery
(``virtlev.acceptance``) or the test suite establishes, and records why it is
in its workload.  ``items.py`` holds the call and the output check of each
family.

How many items a family gets (the traffic mix) follows one rule:

* one item per case the battery or the tests establish (``Family.cases``:
  the potentials, dimensions, engines, rays or zeta0 values they cover);
  repetition comes from the passes of a run, not from repeated items;
* the family whose layer the workload's ``item_tail_s`` should follow
  (``tail=True``: the dense Green kernel on ``jost_criticality``, the 2D
  reduced kernel on ``dense_kernels``) gets at least ``TAIL_BEYOND + 3``
  items.  Its items are the slowest of the workload but for at most one, so
  the tail index falls on its third- or fourth-fastest item, not on the
  fastest, which one quick run of a single item would set.  Items past its
  cases draw a case;
* ``repeat`` raises a family above its case count only where stated.

Within that, the seed draws every parameter the tests leave free: the
start radius of threshold sweeps between the battery's two radius windows,
spectral points, weights, shift data, couplings and supports, kernel
samples, and the extra cases of a tail family.  A family whose cases fix
every input (``free1d_bulk``, ``free3d_bulk``, ``free2d_classify``,
``embedded``, ``jost_virtual``, ``critical_free1d``, ``critical_free3d``)
is the same for every seed: its tests establish the result only at that
input (the bulk-point flatness, for one, fails from r0 = 0.02 up).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

TAIL_BEYOND = 10  # item_tail_s: highest percentile with this many items beyond
GSTAR = math.pi ** 2 / 4.0  # zero-resonance coupling of the unit square well

# Potentials in the CLI mini-format with the verdict criterion 4 establishes
# for them; the triangle and resonant potentials are not expressible there.
REGULAR_1D = ("well:g=-1", "well:g=0.5", "well:g=4", "bump:amp=1",
              "bump:amp=0.5+0.5j", "well:g=1+1j", "well:g=0.5,center=3")
VIRTUAL_1D = ("well:g=0", f"well:g={GSTAR!r}")
# test_nonnegative_bump_family_regular adds two bump amplitudes for Jost.
JOST_REGULAR = REGULAR_1D + ("bump:amp=0.3", "bump:amp=2.5")
# directions off the positive axis: the l1 -> linf norm is 1/(2 sqrt r) on all
RAYS = {"pi": math.pi, "pi/2": math.pi / 2, "3pi/4": 3 * math.pi / 4,
        "3pi/2": 3 * math.pi / 2}
CRITICAL_SIZE = ["--R", "160", "--n", "6401"]  # as in test_critical_json
# start radius of a 7-point sweep: the battery's windows start at 1e-2
# (SWEEP_RADII) and 3e-2 (SUITE_RADII), both at ratio 10^-1/2
R0_WINDOW = (-2.0, math.log10(3e-2))


@dataclass(frozen=True)
class Family:
    name: str
    cases: tuple
    why: str
    draw: Callable[[random.Random, Any], dict]  # (rng, case)
    known_defect: bool = False
    tail: bool = False
    repeat: int = 1

    @property
    def count(self) -> int:
        return max(len(self.cases), self.repeat,
                   TAIL_BEYOND + 3 if self.tail else 0)


def _cli(*argv, **params) -> dict:
    return dict(params, argv=[str(a) for a in argv])


def _r0(rng: random.Random) -> str:
    return f"{10 ** rng.uniform(*R0_WINDOW):.6g}"


def _sweep(op, *extra) -> dict:
    return _cli("sweep", "--op", op, *extra)


def _schrod(rng: random.Random, potential: str) -> dict:
    return _sweep("schrod1d", "--potential", potential, "--z0", "0", "--ray", "pi/2",
                  "--r0", _r0(rng), "--count", "7", "--s", "2", "--sp", "2")


def _complex_off_axis(rng: random.Random) -> list:
    """z = -a + i b with arg sqrt(-z) < 0.24, clear of the K0 sliver."""
    a = 10 ** rng.uniform(-2.0, 0.0)
    return [-a, round(rng.uniform(0.0, 0.5) * a, 12)]


def _samples(rng: random.Random, radius: float, count: int) -> list:
    return [round(radius * (1.0 - rng.random()), 12) for _ in range(count)]


def _upper_half_plane(rng: random.Random) -> list:
    r = 10 ** rng.uniform(-3.0, -1.0)
    theta = rng.uniform(0.1, 0.9) * math.pi
    return [r * math.cos(theta), r * math.sin(theta)]


def _shift_point(rng: random.Random) -> list:
    rho = 1.0 + 9.0 * rng.random()
    phase = 2.0 * math.pi * rng.random()
    return [rho * math.cos(phase), rho * math.sin(phase)]


def _l1_linf(rng: random.Random, ray: str) -> dict:
    r0 = f"{10 ** rng.uniform(-2.0, -1.0):.6g}"
    return dict(_cli("sweep", "--op", "free1d", "--flavor", "l1_linf",
                     "--no-classify", "--R", "2", "--n", "401", "--z0", "0",
                     "--ray", ray, "--r0", r0, "--count", "7"), theta=RAYS[ray])


def _shift(rng: random.Random, length: int) -> dict:
    theta = round(rng.uniform(0.0, 2 * math.pi), 6)
    phi = [[round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)]
           for _ in range(length)]
    entries = ",".join(f"{re!r}{im:+}j" for re, im in phi)
    return _cli("shift", "--z0", f"arg:{theta!r}", f"--phi={entries}",
                theta=theta, phi=phi)


def _repulsive(rng: random.Random, kind: str) -> str:
    height = round(rng.uniform(0.3, 2.5), 4)
    width = round(rng.uniform(0.5, 1.5), 4)
    if kind == "well":
        return f"well:g={-height},a={width}"
    return f"bump:amp={height},a={width}"


SWEEP_BANDED = (
    Family("free1d_virtual", ("pi",),
           "criterion 1 / test_sweep_writes_csv_and_verdict: the free 1D "
           "threshold is Virtual with alpha near 1/2; O(n) convolution engine",
           lambda rng, ray: _sweep("free1d", "--z0", "0", "--ray", ray, "--r0",
                                   _r0(rng), "--s", "2", "--sp", "2", "--count", "7")),
    Family("free1d_bulk", ("pi/2",),
           "test_1d_bulk_point_regular: z0 = 1 inside the spectrum is Regular",
           lambda rng, ray: _sweep("free1d", "--z0", "1", "--ray", ray,
                                   "--s", "2", "--sp", "2", "--count", "7")),
    Family("free3d_regular", ("pi",),
           "test_free3d_regular: the radial 3D threshold at s = s' = 1.1 is "
           "Regular; O(n) radial engine",
           lambda rng, ray: _sweep("free3d", "--z0", "0", "--ray", ray, "--r0",
                                   _r0(rng), "--s", "1.1", "--sp", "1.1")),
    Family("free3d_bulk", ("pi/2",),
           "test_3d_bulk_point_norms_converge: norms toward z0 = 1 flatten "
           "within 1%",
           lambda rng, ray: _sweep("free3d", "--z0", "1", "--ray", ray,
                                   "--s", "2", "--sp", "2", "--count", "7",
                                   "--no-classify")),
    Family("schrod1d_regular", REGULAR_1D,
           "criterion 4, lap side: regular potentials; banded LU engine build "
           "and power iteration dominate, 21 engine builds per verdict",
           _schrod),
    Family("schrod1d_virtual", VIRTUAL_1D,
           "criterion 4, lap side: zero potential and critical well g = pi^2/4 "
           "are Virtual, which adds the state extraction",
           _schrod),
    Family("rankone1d", ("pi",),
           "criterion 5: the rank-one perturbed Laplacian is Regular; "
           "Sherman-Morrison engine",
           lambda rng, ray: _sweep("rankone1d", "--z0", "0", "--ray", ray, "--r0",
                                   _r0(rng), "--s", "2", "--sp", "2")),
    Family("embedded", ("0", "1"),
           "criterion 7: embedded eigenvalue family, radial 3D Schroedinger sweep",
           lambda rng, zeta0: _cli("embedded", "--zeta0", zeta0)),
)

DENSE_KERNELS = (
    Family("free2d_classify", ((10.0, 1000),),
           "test_free2d_virtual_log: free 2D threshold is Virtual (log); "
           "dense radial_reduced_kernel_2d builds dominate",
           lambda rng, grid: {"call": "lap_sweep.classify", "grid": list(grid),
                              "r0": 1e-2, "count": 7, "refine": False}),
    Family("l1_linf_sweep", tuple(RAYS),
           "test_1d_l1_linf: the free 1D L1 -> Linf norm is 1/(2 sqrt|z|) on "
           "every ray; dense entries per sweep point",
           _l1_linf),
    Family("resolvent_matrix", ("free1d", "schrod1d"),
           "test_free1d_matches_kernel_formula / T^-1 / h: dense resolvent "
           "builds of the convolution and banded engines",
           lambda rng, op: {"call": "lap_sweep.resolvent_matrix", "grid": [4.0, 801],
                            "op": op, "g": rng.choice((-1.0, 0.5, 4.0)),
                            "z": _upper_half_plane(rng)}),
    Family("kernel_build", (1, 3),
           "closed-form free kernels (d = 1, 3) sampled on grids at interior z",
           lambda rng, d: {"call": "free_resolvent.build_free_kernel_operator",
                           "d": d, "z": _complex_off_axis(rng)}),
    Family("weighted_norm", (1, 3),
           "criterion 10 adjoint identity: SVD path of operator_norm_weighted "
           "on free kernels",
           lambda rng, d: {"call": "weighted_space.operator_norm_weighted",
                           "d": d, "z": _complex_off_axis(rng),
                           "s": round(rng.uniform(0.5, 2.0), 6),
                           "sp": round(rng.uniform(0.5, 2.0), 6)}),
    Family("shift_level", (1, 2, 3),
           "criterion 6 / test_shift_json: manufactured shift virtual level "
           "for 1 to 3 leading entries, residual <= 1e-10 and a "
           "one-dimensional state space",
           _shift),
    Family("truncated_resolvent", (512,),
           "criterion 6: truncated shift resolvent, l1 -> linf bound 1",
           lambda rng, n: {"call": "discrete_ops.truncated_resolvent_matrix",
                           "n": n, "z": _shift_point(rng)}),
    Family("kernel2d_sweep_point", ((10.0, 1000),),
           "one reduced 2D kernel build of the free2d classify: the grid of "
           "test_free2d_virtual_log at a point -r of its radius window",
           lambda rng, grid: {"call": "free_resolvent.radial_reduced_kernel_2d",
                              "grid": list(grid),
                              "z": [-(10 ** rng.uniform(-5.0, -2.0)), 0.0]},
           tail=True),
    Family("kernel2d_positive_axis", ((1.0, 1e-2),),
           "known defect (ROADMAP item 3): 2D reduced kernel at z = 1+1e-2i, "
           "R |w| = 20 > 12, is off by up to 45% against mpmath; three seeded "
           "sample sets",
           lambda rng, z: {"call": "free_resolvent.radial_reduced_kernel_2d",
                           "z": list(z), "r": _samples(rng, 20.0, 64),
                           "rho": _samples(rng, 20.0, 64)},
           known_defect=True, repeat=3),
)

JOST_CRITICALITY = (
    Family("jost_regular", JOST_REGULAR,
           "criterion 4, Jost side: regular potentials; the dense Green kernel "
           "dominates time and peak memory",
           lambda rng, potential: _cli("jost", "--potential", potential),
           tail=True),
    Family("jost_virtual", VIRTUAL_1D,
           "criterion 4, Jost side: zero potential and critical well have a "
           "vanishing Wronskian; RK4 only",
           lambda rng, potential: _cli("jost", "--potential", potential)),
    Family("critical_free1d", ("free1d",),
           "criterion 8 / test_critical_json: the free line has a null state",
           lambda rng, case: _cli("critical", "--case", case, *CRITICAL_SIZE)),
    Family("critical_free3d", ("free3d",),
           "criterion 8: free radial 3D has a weighted gap; bisection over "
           "tridiagonal eigen-solves",
           lambda rng, case: _cli("critical", "--case", case, *CRITICAL_SIZE)),
    Family("critical_potential", ("well", "bump"),
           "criterion 8 cross-check: nonnegative wells and bumps are "
           "subcritical, so they have a weighted gap",
           lambda rng, kind: _cli("critical", "--case", "potential", "--potential",
                                  _repulsive(rng, kind), *CRITICAL_SIZE)),
)

WORKLOADS = {
    "sweep_banded": SWEEP_BANDED,
    "dense_kernels": DENSE_KERNELS,
    "jost_criticality": JOST_CRITICALITY,
}

FAMILIES = {f.name: f for fams in WORKLOADS.values() for f in fams}


def generate(workload: str, seed: int, per_family: int | None = None) -> list:
    """Item specs of one workload: each family's draws, family by family.

    A family's first items take its cases in order; items past them draw a
    case.  Each family has its own random stream, so a family's items do not
    depend on the families before it.  Families keep a fixed order and the
    seed shuffles the items within each, so allocator and cache history
    change little from seed to seed.  `per_family` caps each family's count
    (smoke runs use 1).
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    specs = []
    for family in WORKLOADS[workload]:
        rng = random.Random(f"{workload}/{family.name}/{seed}")
        count = family.count if per_family is None else min(per_family, family.count)
        cases = [family.cases[k] if k < len(family.cases) else rng.choice(family.cases)
                 for k in range(count)]
        block = [dict(family.draw(rng, case), family=family.name) for case in cases]
        rng.shuffle(block)
        specs += block
    return specs
