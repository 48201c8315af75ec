"""Domain errors raised across the package.

Every error carries a human-readable message naming the offending value
(day, position, flag) so callers can report without re-deriving context.
"""


class FxfolioError(Exception):
    """Base class for all fxfolio domain errors."""


# Rate and return matrices.
class NonUnitDiagonal(FxfolioError):
    pass


class NonPositiveEntry(FxfolioError):
    pass


class SpreadViolation(FxfolioError):
    """Sell quote at (i, j) does not strictly exceed the mirrored buy quote."""


class DayMismatch(FxfolioError):
    pass


class MissingNextDay(FxfolioError):
    pass


class ComplementarityViolation(FxfolioError):
    """Both mirrored return conditions fired for the same currency pair."""


# Portfolio algebra.
class DimensionMismatch(FxfolioError):
    pass


class ZeroReturn(FxfolioError):
    """Portfolio return is zero, so the realized portfolio is undefined."""


class SupportViolation(FxfolioError):
    """Mass placed where the base distribution has none."""


class InvalidM(FxfolioError):
    pass


# Transaction costs.
class NonPositiveCapital(FxfolioError):
    pass


class NoConvergence(FxfolioError):
    pass


class InvalidC(FxfolioError):
    pass


class CostExceedsCapital(FxfolioError):
    pass


class InvalidParams(FxfolioError):
    pass


# Update rules.
class ZeroDiamond(FxfolioError):
    """A required weighted-return sum is zero."""


# Cross-rate prediction.
class EmptyRange(FxfolioError):
    pass


class NoPredecessor(FxfolioError):
    pass


class TooShort(FxfolioError):
    pass


class EmptyHistory(FxfolioError):
    pass


class InsufficientHistory(FxfolioError):
    pass


class LengthMismatch(FxfolioError):
    pass


class EmptySequence(FxfolioError):
    pass


# Backtest engine.
class TooFewDays(FxfolioError):
    pass


class EmptyLedger(FxfolioError):
    pass


class NonPositiveDiamond(FxfolioError):
    pass


class CostRatioAtLeastOne(FxfolioError):
    pass


class NonPositivePairReturn(FxfolioError):
    pass


class NormalizationViolated(FxfolioError):
    """Run inputs fall outside the guarantee's hypotheses."""


class InvalidBlockUnit(FxfolioError):
    pass


# Data I/O.
class ParseError(FxfolioError):
    pass


class InvariantError(FxfolioError):
    pass


class NonMonotoneDays(FxfolioError):
    pass


class InvalidSpec(FxfolioError):
    pass


class InfeasibleTargets(FxfolioError):
    pass


class IoError(FxfolioError):
    pass
