"""Multiple-comparison corrections for families of pairwise leakage tests.

The paper runs 6 pairwise tests per event per dataset at a fixed 95%
confidence without correction.  The reproduction reports both the raw
verdicts (to match the paper's tables) and family-wise corrected verdicts,
since an evaluator scanning many events over many category pairs would
otherwise accumulate false alarms.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import StatisticsError


def _validate(p_values: Sequence[float]) -> np.ndarray:
    ps = np.asarray([float(p) for p in p_values], dtype=np.float64)
    if not ps.size:
        raise StatisticsError("need at least one p-value")
    outside = ps[~((ps >= 0.0) & (ps <= 1.0))]
    if outside.size:
        raise StatisticsError(f"p-value {outside[0]} outside [0, 1]")
    return ps


def _bonferroni(ps: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, ps.shape[0] * ps)


def _holm(ps: np.ndarray) -> np.ndarray:
    m = ps.shape[0]
    order = np.argsort(ps, axis=0, kind="stable")
    steps = (m - np.arange(m, dtype=np.float64))[:, None]
    candidates = np.minimum(1.0, steps * np.take_along_axis(ps, order, 0))
    adjusted = np.empty_like(ps)
    np.put_along_axis(adjusted, order,
                      np.maximum.accumulate(candidates, axis=0), 0)
    return adjusted


def _benjamini_hochberg(ps: np.ndarray) -> np.ndarray:
    m = ps.shape[0]
    order = np.argsort(ps, axis=0, kind="stable")
    ranks = np.arange(1, m + 1, dtype=np.float64)[:, None]
    candidates = np.minimum(
        1.0, np.take_along_axis(ps, order, 0) * m / ranks)
    running_min = np.minimum.accumulate(candidates[::-1], axis=0)[::-1]
    adjusted = np.empty_like(ps)
    np.put_along_axis(adjusted, order, running_min, 0)
    return adjusted


_METHODS = {
    "none": lambda ps: ps,
    "bonferroni": _bonferroni,
    "holm": _holm,
    "bh": _benjamini_hochberg,
}


def adjust_p_value_columns(p_values: np.ndarray,
                           method: str = "none") -> np.ndarray:
    """Adjust each column of a ``(m, k)`` p-value array as its own family.

    The array form of every correction here: the list functions below
    adjust a single column, and the alarm layer adjusts one column per
    monitored event.  Values are not range-checked.
    """
    try:
        fn = _METHODS[method]
    except KeyError:
        raise StatisticsError(
            f"unknown correction {method!r}; choose from {sorted(_METHODS)}"
        ) from None
    return fn(np.asarray(p_values, dtype=np.float64))


def _adjust_list(p_values: Sequence[float], method: str) -> List[float]:
    ps = _validate(p_values)
    return adjust_p_value_columns(ps[:, None], method)[:, 0].tolist()


def bonferroni(p_values: Sequence[float]) -> List[float]:
    """Bonferroni-adjusted p-values: ``min(1, m * p)``."""
    return _adjust_list(p_values, "bonferroni")


def holm_bonferroni(p_values: Sequence[float]) -> List[float]:
    """Holm's step-down adjusted p-values (uniformly more powerful)."""
    return _adjust_list(p_values, "holm")


def benjamini_hochberg(p_values: Sequence[float]) -> List[float]:
    """Benjamini–Hochberg FDR-adjusted p-values (q-values)."""
    return _adjust_list(p_values, "bh")


def adjust_p_values(p_values: Sequence[float], method: str = "none") -> List[float]:
    """Dispatch to a correction by name (``none``/``bonferroni``/``holm``/``bh``)."""
    return _adjust_list(p_values, method)


def significant_after_correction(p_values: Sequence[float], alpha: float = 0.05,
                                 method: str = "holm") -> List[bool]:
    """Boolean reject/accept vector after applying ``method`` at level ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise StatisticsError(f"alpha must be in (0, 1), got {alpha}")
    return [p < alpha for p in adjust_p_values(p_values, method=method)]
