"""Exception types shared across the package.

Everything raised on purpose derives from M3adError so the CLI can map
failures to exit codes without string matching.
"""


class M3adError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ShapeError(M3adError):
    """Operands have incompatible shapes or dtypes for the requested op."""


class ContractError(M3adError):
    """An API was called in a way its contract forbids (bad mode, empty
    mask, non-scalar backward, out-of-range label index, ...)."""


class ConfigError(M3adError):
    """Configuration file or override could not be parsed or validated."""


class ManifestError(M3adError):
    """Dataset manifest is malformed or references missing files."""


class CheckpointError(M3adError):
    """Checkpoint file is corrupt, truncated, or of an unsupported version."""
