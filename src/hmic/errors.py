"""The common base of every error hmic raises on bad input or a failed stage."""


class HmicError(Exception):
    """An expected failure: the CLI reports it as one ``error:`` line and exits 2.

    Each subclass also keeps a built-in base (``ValueError``, ``KeyError``,
    ``RuntimeError``), so callers that catch those still work.
    """
