"""Exception types shared across the package."""


class InfoFlowError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(InfoFlowError):
    """Operands have inconsistent shapes or label sets."""


class NegativeEntryError(InfoFlowError):
    """A count or probability entry is negative."""


class RowSumError(InfoFlowError):
    """A probability row does not sum to 1 within tolerance."""


class AbsorptionUnreachableError(InfoFlowError):
    """Some transient state cannot reach any absorbing state."""


class SingularSystemError(InfoFlowError):
    """I - Q is numerically non-invertible."""


class UnknownStakeholderError(InfoFlowError):
    """A stakeholder id does not exist in the network."""


class ExceedsTotalError(InfoFlowError):
    """Requested discarded-flow value exceeds the stakeholder's total outflow."""


class NoNonDiTargetsError(InfoFlowError):
    """Reallocation has no non-discard targets to distribute flow over."""


class DegenerateRangeError(InfoFlowError):
    """Impact ratio requested over an empty sweep range (n_max == n_min)."""


class EmptySampleError(InfoFlowError):
    """Summary statistics requested for an empty sample set."""


class ParseError(InfoFlowError):
    """Input document is not valid JSON."""


class SchemaError(InfoFlowError):
    """Input document does not match the network-document schema."""


class ValidationError(InfoFlowError):
    """Network failed semantic validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.violations) or "invalid network")
