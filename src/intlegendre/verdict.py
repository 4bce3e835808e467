"""Shared verdict vocabulary for identity verification results."""

from enum import Enum


class Verdict(str, Enum):
    """Outcome of checking a stated closed form against the exact oracle.

    CONFIRMED_UP_TO_SIGN and CORRECTED_FACTOR are first-class outcomes, not
    failures: they mean the stated form holds after the recorded correction.
    """

    CONFIRMED = "CONFIRMED"
    CONFIRMED_UP_TO_SIGN = "CONFIRMED_UP_TO_SIGN"
    CORRECTED_FACTOR = "CORRECTED_FACTOR"
    FAILED = "FAILED"
