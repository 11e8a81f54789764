"""Classification verdicts shared by the Wronskian and sweep classifiers, and
the one CSV table format of every tabular output."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Classification(enum.Enum):
    REGULAR = "regular"
    VIRTUAL = "virtual"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ThresholdReport:
    """Outcome of a threshold classification.

    `alpha` is the fitted divergence exponent of resolvent norms (None for
    classifiers that do not sweep), `divergence` distinguishes power-law from
    logarithmic growth, and `sweeps` keeps the raw samples a sweep classifier fitted.
    Virtual verdicts carry the detected rank and sup-normalized states when
    the search resolved them.
    """

    classification: Classification
    rank: int | None = None
    states: list[np.ndarray] | None = None
    alpha: float | None = None
    divergence: str | None = None
    diagnostics: dict = field(default_factory=dict)
    sweeps: list | None = field(default=None, repr=False)  # SweepResults classified, coarse first

    def verdict_line(self) -> str:
        if self.classification is Classification.VIRTUAL:
            tag = "log" if self.divergence == "log" else f"alpha~{self.alpha:.3g}" if self.alpha is not None else "rank>=1"
            return f"Virtual ({tag})"
        if self.classification is Classification.REGULAR:
            return "Regular" + (f" (alpha~{self.alpha:.3g})" if self.alpha is not None else "")
        return "Inconclusive"


def csv_table(columns, rows) -> str:
    """CSV text: the header `columns`, then one line per row; ints print as
    they are, floats at 15 significant digits, a complex cell as two columns."""
    def cells(row):
        for v in row:
            if isinstance(v, complex):
                yield from (f"{v.real:.15g}", f"{v.imag:.15g}")
            else:
                yield str(v) if isinstance(v, int) else f"{v:.15g}"

    return "\n".join([",".join(columns), *(",".join(cells(r)) for r in rows)]) + "\n"
