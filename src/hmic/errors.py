"""The one error class of every expected failure: bad input or a failed stage.

A subclass exists only where some code catches it by its own type. HmicError
is a ValueError, so a check that catches ValueError around a call catches the
HmicError that call raises too.
"""


class HmicError(ValueError):
    """An expected failure: the CLI reports it as one ``error:`` line and exits 2."""
