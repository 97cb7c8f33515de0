"""Exception hierarchy. Each class names the violated invariant."""


class QcorrError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QcorrError):
    pass


class NotHermitian(QcorrError):
    pass


class NotPSD(QcorrError):
    pass


class TraceNotOne(QcorrError):
    pass


class NotNormalized(QcorrError):
    pass


class UnknownFamily(QcorrError):
    pass


class ParamOutOfRange(QcorrError, ValueError):
    pass


class NotADistribution(QcorrError):
    pass


class SinglePartyState(QcorrError):
    pass


class AngleOutOfRange(QcorrError):
    pass


class NotUnitary(QcorrError):
    pass


class NotAQubit(QcorrError):
    pass


class BadOrder(QcorrError):
    pass


class ParseError(QcorrError):
    pass
