"""Domain errors raised across the package.

Every error carries a human-readable message naming the offending value
(day, position, flag) so callers can report without re-deriving context.
Each one derives from exactly one of three bases, and the base decides
the CLI's exit code: InputError 1, ConfigError 2, RunError 3.
"""


class FxfolioError(Exception):
    """Base class for all fxfolio domain errors."""


class InputError(FxfolioError):
    """An input file cannot be read, parsed, or breaks an invariant."""


class ConfigError(FxfolioError):
    """A parameter or spec is out of range."""


class RunError(FxfolioError):
    """A computation or verification fails on valid inputs."""


# Rate and return matrices.
class NonUnitDiagonal(RunError):
    pass


class NonPositiveEntry(RunError):
    pass


class SpreadViolation(RunError):
    """Sell quote at (i, j) does not strictly exceed the mirrored buy quote."""


class DayMismatch(RunError):
    pass


class ComplementarityViolation(RunError):
    """Both mirrored return conditions fired for the same currency pair."""


# Portfolio algebra.
class DimensionMismatch(RunError):
    pass


class ZeroReturn(RunError):
    """Portfolio return is zero, so the realized portfolio is undefined."""


class SupportViolation(RunError):
    """Mass placed where the base distribution has none."""


class InvalidM(ConfigError):
    pass


# Transaction costs.
class NonPositiveCapital(RunError):
    pass


class NoConvergence(RunError):
    pass


class InvalidC(ConfigError):
    pass


class InvalidParams(ConfigError):
    pass


# Update rules.
class ZeroDiamond(RunError):
    """A required weighted-return sum is zero."""


# Cross-rate prediction.
class EmptyRange(RunError):
    pass


class NoPredecessor(RunError):
    pass


class EmptyHistory(RunError):
    pass


class InsufficientHistory(RunError):
    pass


class EmptySequence(RunError):
    pass


# Backtest engine.
class TooFewDays(RunError):
    pass


class EmptyLedger(RunError):
    pass


class NonPositiveDiamond(RunError):
    pass


class CostRatioAtLeastOne(RunError):
    pass


class NonPositivePairReturn(RunError):
    pass


class NormalizationViolated(RunError):
    """Run inputs fall outside the guarantee's hypotheses."""


class InvalidBlockUnit(ConfigError):
    pass


# Data I/O.
class ParseError(InputError):
    pass


class InvariantError(InputError):
    pass


class NonMonotoneDays(InputError):
    pass


class InvalidSpec(ConfigError):
    pass


class InfeasibleTargets(ConfigError):
    pass


class IoError(InputError):
    pass
