"""Exception types shared across the package."""

from __future__ import annotations


class HlsDseError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HlsDseError):
    """A design or benchmark file is malformed (bad JSON, unknown or missing fields)."""

    def __init__(self, message: str, where: str | None = None) -> None:
        self.message = message
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")

    def within(self, prefix: str) -> "ParseError":
        """The same error, its location ``prefix`` followed by ``where``."""
        return ParseError(self.message, prefix + (self.where or ""))


class ValidationError(HlsDseError):
    """A structurally parseable design violates model invariants."""

    def __init__(self, violations: list) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(repr(v) for v in self.violations) or "invalid design")


class TotalTooLarge(HlsDseError):
    """A design's largest total area or latency is beyond what a float holds
    exactly, so reports could not show it."""

    def __init__(self, what: str, total: int, limit: int) -> None:
        self.what = what
        self.total = total
        self.limit = limit
        super().__init__(f"largest total {what} needs {total.bit_length()} bits, above {limit}")


class CapExceeded(HlsDseError):
    """An enumeration would exceed the configured configuration cap."""

    def __init__(self, count: int, cap: int) -> None:
        self.count = count
        self.cap = cap
        super().__init__(f"{count} configurations exceed the enumeration cap of {cap}")


class UnknownBenchmark(HlsDseError):
    def __init__(self, name: str, known: tuple[str, ...] = ()) -> None:
        self.name = name
        hint = f" (known: {', '.join(known)})" if known else ""
        super().__init__(f"unknown benchmark {name!r}{hint}")


class InvalidPragma(HlsDseError):
    """A pragma is not applicable to the given kernel source."""


class UnsupportedModel(HlsDseError):
    """An unknown latency-model identifier was requested."""


class FunctionalityBroken(HlsDseError):
    """Variant generation for a kernel kept producing faulty results."""

    def __init__(self, kernel: str, attempts: int) -> None:
        self.kernel = kernel
        self.attempts = attempts
        super().__init__(f"kernel {kernel!r} unrepaired after {attempts} attempts")


class CyclicDesign(HlsDseError):
    """The call graph contains a cycle, so bottom-up processing is impossible."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        super().__init__(f"call graph cycle through kernel {kernel!r}")


class SessionTerminated(HlsDseError):
    """An action arrived after the session already reached an outcome."""


class InvalidAction(HlsDseError):
    """An action failed validation against the session's design."""


class EmptyInput(HlsDseError):
    """An operation that needs at least one record received none."""
