"""Shared exception types."""

from __future__ import annotations


class ExkitError(Exception):
    """Base class for all structured errors raised by this package."""


class SumNotOne(ExkitError):
    pass


class BadWordLength(ExkitError):
    pass


class DimensionMismatch(ExkitError):
    pass


class NotFactored(ExkitError):
    pass


class CapExceeded(ExkitError):
    pass


class WordTooShort(ExkitError):
    pass


class InconsistentDescriptor(ExkitError):
    pass


class EmptyClass(ExkitError):
    pass


class BadParams(ExkitError):
    pass


class NotExchangeable(ExkitError):
    """Carries a witness pair of equivalent words with differing probability."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NotConditionallyExchangeable(NotExchangeable):
    pass


class KernelNotStationary(ExkitError):
    pass
