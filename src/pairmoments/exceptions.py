"""Exception types shared across the package."""


class SizeLimitError(ValueError):
    """An enumeration or group-size cap was exceeded.

    The message always names the offending size and the active cap so the
    caller knows exactly which knob to raise.
    """


class DualPathMismatchError(RuntimeError):
    """Two independent computation paths disagreed.

    Carries both results so the discrepancy can be inspected.
    """

    def __init__(self, message, path_a=None, path_b=None):
        super().__init__(message)
        self.path_a = path_a
        self.path_b = path_b
