"""Exception types shared across the toolkit, and the validation helpers that file problems."""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np


class ConfigurationError(ValueError):
    """A model or experiment was built from inconsistent parameters."""


class ConfigError(ConfigurationError):
    """Every problem found in one validation pass, each ``path: message``."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class Problems:
    """Collects ``path: message`` problems and raises them as one :class:`ConfigError`."""

    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}")

    def unknown(self, mapping, names) -> None:
        """File each key of ``mapping`` that is not in ``names`` as an unknown key."""
        for key in mapping:
            if key not in names:
                self.add(str(key), "unknown key")

    def nest(self, prefix: str, build):
        """``build()``, or None with its problems filed under ``prefix``."""
        try:
            return build()
        except ConfigError as exc:
            self.items.extend(f"{prefix}.{p}" for p in exc.problems)
            return None

    def raise_if_any(self) -> None:
        if self.items:
            raise ConfigError(self.items)


def checked_array(value, shape: tuple, path: str, problems: Problems, rule: str) -> np.ndarray | None:
    """``value`` as a new float array of ``shape`` obeying ``rule``, or None after filing a problem.

    The one rule for a number: every entry is a real number, and booleans and
    strings are not, as for :func:`checked_int`; an integer no float holds is
    refused too.  An integer or float array needs no look at its entries;
    anything else, nested lists included, is looked at entry by entry.
    ``None`` in ``shape`` matches any length, and ``()`` asks for one number.
    ``rule`` is ``"real"`` (finite entries), ``"nonnegative"`` or ``"count"``
    (nonnegative integers below 2**53, which a float holds exactly); a broken
    rule is reported at its first offending entry.
    """
    numeric = isinstance(value, np.ndarray) and value.dtype.kind in "iuf"
    entries = value if numeric else np.asarray(value, dtype=object)
    arr = None
    if numeric or all(isinstance(v, Real) and not isinstance(v, bool) for v in entries.flat):
        try:
            arr = np.array(entries, dtype=float)
        except OverflowError:  # an integer no float holds
            pass
    if arr is None or arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        if not shape:
            what = "a number"
        elif len(shape) == 1:
            what = "a vector of numbers" if shape[0] is None else f"a vector of {shape[0]} numbers"
        else:
            what = "a matrix of numbers" if shape[0] is None else f"a {shape[0]}x{shape[1]} matrix of numbers"
        problems.add(path, f"expected {what}")
        return None
    if not np.isfinite(arr).all():
        problems.add(path, "contains non-finite entries")
        return None
    if rule != "real" and flag_entry(arr, arr < 0, "negative entry {}", path, problems):
        return None
    if rule == "count" and (flag_entry(arr, arr != np.floor(arr), "non-integer entry {}", path, problems)
                            or flag_entry(arr, arr >= 2.0**53, "count not below 2**53", path, problems)):
        return None
    return arr


def flag_entry(arr: np.ndarray, mask: np.ndarray, message: str, path: str, problems: Problems) -> bool:
    """File ``message`` (formatted with the entry) at the first entry ``mask`` marks, if any."""
    bad = np.argwhere(mask)  # one row per marked entry, a 0-d one included
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        problems.add(path + "".join(f"[{i}]" for i in at), message.format(arr[at]))
    return bool(len(bad))


def checked_int(value, path: str, problems: Problems, minimum: int | None = None, bits: int | None = None) -> bool:
    """Whether ``value`` is an integer (booleans are not) of at least ``minimum``; files a problem if not.

    With ``bits`` it must also lie in ``[minimum, 2**bits)``, where no
    ``minimum`` means 0.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        problems.add(path, f"expected an integer{bound}, got {value!r}")
        return False
    low = minimum or 0
    if bits is not None and not low <= value < 1 << bits:
        problems.add(path, f"expected an integer in [{low}, 2**{bits}), got {value!r}")
        return False
    return True


class StationarityError(ValueError):
    """An operation required a stability condition that does not hold."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the numerically representable range.

    ``time_index`` is the absolute index of the step that left it, burn-in
    included, set by the engine's one run loop; None when the error did not
    come through that loop.
    """

    time_index: int | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.time_index is not None:
            return f"{base} (at time index {self.time_index})"
        return base
