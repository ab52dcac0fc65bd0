"""The toolkit's two exception types, one per CLI exit code.

An invalid configuration or argument raises the builtin ``ValueError``
(exit 1).  Malformed or degenerate input data raises :class:`DataError`
(exit 2), and a non-finite value or failed check at run time raises
:class:`NumericalError` (exit 3).
"""


class DataError(Exception):
    """Malformed input files, wrong shapes or degenerate datasets."""


class NumericalError(Exception):
    """Non-finite values or degenerate statistics produced at run time."""
