"""Exception hierarchy shared by the whole pipeline.

Three mid-level families map onto the CLI exit codes: ConfigError (2),
DataError (4), NumericalError (5). I/O problems surface as plain OSError (3).
"""


class XmreidError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(XmreidError):
    """A parameter or option combination that can never be valid."""


class DataError(XmreidError):
    """Input data violates a format, shape, or consistency requirement."""


class NumericalError(XmreidError):
    """A numerical routine could not produce a usable result."""


# -- linear algebra ---------------------------------------------------------

class NotSquare(DataError):
    pass


class NotSymmetric(DataError):
    pass


class NotPositiveDefinite(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


# -- file formats and dataset assembly --------------------------------------

class MalformedHeader(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class NonFiniteValue(DataError):
    pass


class DuplicateToken(DataError):
    pass


class UnknownIdentity(DataError):
    pass


class DuplicateAssignment(DataError):
    pass


class RaggedAttributes(DataError):
    pass


class MisalignedRecords(DataError):
    pass


# -- text preparation and the CNN -------------------------------------------

class UnknownMethod(ConfigError):
    pass


class InvalidConfig(ConfigError):
    pass


class ShapeMismatch(DataError):
    pass


class EmptyCorpus(DataError):
    pass


class EmptySubset(DataError):
    pass


# -- CCA and fusion ----------------------------------------------------------

class TooFewSamples(DataError):
    pass


class KOutOfRange(ConfigError):
    pass


class MissingModality(DataError):
    pass


# -- XQDA ---------------------------------------------------------------------

class TooFewIdentities(DataError):
    pass


class MissingView(DataError):
    pass


class DegenerateMetric(NumericalError):
    pass


# -- evaluation ---------------------------------------------------------------

class EmptyGallery(DataError):
    pass


class ProbeIdentityAbsent(DataError):
    pass


class NOutOfRange(ConfigError):
    pass


# -- synthetic data and oracles ----------------------------------------------

class DimensionNotTwo(DataError):
    pass


class TooLarge(DataError):
    pass
