"""Per-op correctness checks. Each raises ``CheckFailed`` on a wrong output.

Reports and CLI documents are validated against ``tailtest.schemas`` with
``jsonschema``; decision invariants are checked on every p-value; and the
observed statistic is recomputed by ``reference_statistic``, a short
independent implementation of ranks -> top-k -> cells -> Jeffreys KL.
Bootstrap p-values must lie on their grid: p = (replicates above) / B.
"""

from __future__ import annotations

import math

import numpy as np
from jsonschema.validators import validator_for
from tailtest import schemas


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


_VALIDATORS: dict[str, object] = {}


def validate_schema(doc: dict, command: str):
    validator = _VALIDATORS.get(command)
    if validator is None:
        schema = schemas.get_schema(command)
        validator = _VALIDATORS[command] = validator_for(schema)(schema)
    errors = sorted(validator.iter_errors(doc), key=str)
    require(not errors, f"{command} document fails its schema: {errors[:1]}")


def check_decision(p_value: float, reject: bool, level: float, statistic: float):
    require(0.0 <= p_value <= 1.0, f"p-value {p_value} outside [0, 1]")
    require(reject == (p_value < level), f"reject={reject} disagrees with p={p_value} at level {level}")
    require(math.isfinite(statistic) and statistic >= 0.0, f"statistic {statistic} not finite and >= 0")


def check_bootstrap_p(p_value: float, replicates: int, symmetric: bool = False):
    """A bootstrap p-value is a count over B replicates; the symmetric
    source averages two such counts, so p * 2B is a whole number."""
    steps = p_value * replicates * (2 if symmetric else 1)
    require(abs(steps - round(steps)) < 1e-9,
            f"p-value {p_value!r} is not a multiple of 1/{replicates}"
            + (" (halved)" if symmetric else ""))


def _pseudo(raw: np.ndarray) -> np.ndarray:
    n = raw.shape[0]
    ranks = np.empty(raw.shape)
    for j in range(raw.shape[1]):
        ranks[np.argsort(raw[:, j], kind="stable"), j] = np.arange(1, n + 1)
    return (n + 1.0) / (n + 1.0 - ranks)


def _cell_counts(raw: np.ndarray, risk: str, num_cells: int, k: int) -> np.ndarray:
    z = _pseudo(raw)
    if risk == "max":
        r = z.max(axis=1)
    elif risk == "sum":
        r = z.sum(axis=1)
    else:
        r = np.sqrt((z * z).sum(axis=1))
    order = np.argsort(r, kind="stable")
    top = z[order[-k:]] / r[order[-k - 1]]
    if risk == "max":
        cells = (top[:, 0] > 1.0) * 1 + (top[:, 1] > 1.0) * 2
        on_boundary = cells == 0
        cells[on_boundary] = ((top[on_boundary, 0] >= 1.0) * 1
                              + (top[on_boundary, 1] >= 1.0) * 2)
    else:
        inner = [(math.pi / 2.0) * j / num_cells for j in range(1, num_cells)]
        cells = np.searchsorted(inner, np.arctan2(top[:, 1], top[:, 0]), side="left") + 1
    return np.bincount(cells, minlength=num_cells + 1)[1:]


def reference_statistic(raw_x: np.ndarray, raw_y: np.ndarray, risk: str,
                        num_cells: int, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell counts of both samples and the Haldane-corrected Jeffreys KL."""
    cx = _cell_counts(raw_x, risk, num_cells, k)
    cy = _cell_counts(raw_y, risk, num_cells, k)
    if (cx == 0).any() or (cy == 0).any():
        p, q = (cx + 0.5) / (k + num_cells / 2.0), (cy + 0.5) / (k + num_cells / 2.0)
    else:
        p, q = cx / k, cy / k
    return cx, cy, max(float(np.sum((p - q) * (np.log(p) - np.log(q)))), 0.0)


def check_statistic(statistic: float, raw_x, raw_y, risk: str, num_cells: int, k: int,
                    counts_x=None, counts_y=None):
    cx, cy, expected = reference_statistic(raw_x, raw_y, risk, num_cells, k)
    if counts_x is not None:
        require(list(counts_x) == cx.tolist() and list(counts_y) == cy.tolist(),
                f"cell counts {counts_x}/{counts_y} differ from reference {cx}/{cy}")
    require(math.isclose(statistic, expected, rel_tol=1e-9, abs_tol=1e-15),
            f"statistic {statistic!r} differs from reference {expected!r}")


def check_report(doc: dict, raw_x, raw_y):
    """A ``TestReport.to_dict()`` from one empirical-margin ``run_test``."""
    validate_schema(doc, "test")
    check_decision(doc["p_value"], doc["reject"], doc["level"], doc["statistic"])
    boot = doc["bootstrap"]
    require(boot is not None, "an empirical-margin report must carry its bootstrap")
    check_bootstrap_p(doc["p_value"], boot["replicates"], boot["source"] == "symmetric")
    k = doc["k_exceedances"]
    cells = doc["cells"]
    for side in ("x", "y"):
        require(sum(cells[f"{side}_counts"]) == k, f"{side} cell counts do not sum to k={k}")
    require(math.isclose(doc["normalized"], k * doc["statistic"] / 2.0, rel_tol=1e-12),
            "normalized statistic is not k * D / 2")
    check_statistic(doc["statistic"], raw_x, raw_y, doc["risk"], doc["num_cells"], k,
                    cells["x_counts"], cells["y_counts"])


def check_curve(curve, grid: tuple[int, ...], baseline: bool):
    """A one-repetition ``PowerCurve``."""
    require(tuple(p.grid_value for p in curve.points) == tuple(grid),
            f"curve grid {[p.grid_value for p in curve.points]} is not {list(grid)}")
    for p in curve.points:
        for value in (p.mean_statistic, p.q05, p.q95):
            require(math.isfinite(value) and value >= 0.0, f"statistic {value} at {p.grid_value}")
        require(p.q05 == p.mean_statistic == p.q95, "one repetition must give equal quantiles")
        require(p.rejection_rate in (0.0, 1.0), f"rejection rate {p.rejection_rate} from one rep")
        require(math.isfinite(p.critical_value) and p.critical_value > 0.0,
                f"critical value {p.critical_value} at {p.grid_value}")
    require((curve.baseline is not None) == baseline, "max-risk baseline presence is wrong")
    if baseline:
        stat, rate = curve.baseline["mean_statistic"], curve.baseline["rejection_rate"]
        require(math.isfinite(stat) and stat >= 0.0 and rate in (0.0, 1.0),
                f"bad baseline {curve.baseline}")


def check_nulls(result, replicates: int):
    for mode in (result.known, result.empirical):
        for values in (mode.bootstrap, mode.fresh):
            require(values.shape == (replicates,), f"{values.shape} replicates, want {replicates}")
            require(bool(np.isfinite(values).all() and (values >= 0).all()),
                    "null replicates must be finite and >= 0")
        require(0.0 <= mode.ks_bootstrap_vs_fresh <= 1.0, "KS distance outside [0, 1]")
    require(result.known.ks_fresh_vs_chisq is not None
            and 0.0 <= result.known.ks_fresh_vs_chisq <= 1.0, "known-margin chi-squared KS missing")
    require(result.empirical.ks_fresh_vs_chisq is None, "empirical mode has no chi-squared KS")
