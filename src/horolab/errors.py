"""Exception hierarchy shared by all horolab modules.

Exit-code mapping used by the CLI: InvariantViolation -> 1,
InputError -> 2, ResourceCapError -> 3.
"""


class HorolabError(Exception):
    def at_seed(self, seed_index: int) -> "HorolabError":
        """The same error class, its message led by the sweep's seed index."""
        return type(self)(f"seed {seed_index}: {self}")


class InputError(HorolabError):
    """Bad user input: unknown generator, malformed config, horizon too short."""


class InvariantViolation(HorolabError):
    """A structural invariant failed during a run; names the invariant."""


class ResourceCapError(HorolabError):
    """An enumeration exceeded the configured memory cap."""

    def __init__(self, what, cap):
        super().__init__(what, cap)  # args rebuild the error when unpickled
        self.what = what
        self.cap = cap

    def __str__(self):
        return f"{self.what} exceeded the enumeration cap of {self.cap} elements"

    def at_seed(self, seed_index: int) -> "ResourceCapError":
        return ResourceCapError(f"seed {seed_index}: {self.what}", self.cap)


class ApproximationError(HorolabError):
    """A limit-based value failed to stabilise within the probe budget."""


class MarkCollisionError(HorolabError):
    """Two overlapping diamonds drew identical marks; the seed must be rejected."""
