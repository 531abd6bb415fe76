"""Exception types shared across the toolkit."""


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


class StationarityError(ValueError):
    """An operation required a stability condition that does not hold."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the numerically representable range.

    ``time_index`` is the step at which the blow-up was detected, when known.
    """

    def __init__(self, message: str, time_index: int | None = None):
        super().__init__(message)
        self.time_index = time_index

    def __str__(self) -> str:
        base = super().__str__()
        if self.time_index is not None:
            return f"{base} (at time index {self.time_index})"
        return base
